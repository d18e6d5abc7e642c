package engine

import (
	"fmt"
	"sort"
	"sync/atomic"
)

// This file is the engine's streaming execution path: chunked pipelined
// rounds with bounded memory. In barrier mode (the default) every server
// fully materializes its outbound batches, then delivery moves everything
// at once — peak memory scales with total round traffic, roughly twice the
// received load, because the emitters still hold the full round when the
// delivered arenas land. In streaming mode the Emitter flushes fixed-size
// chunks while senders are still producing, and the flushed buffers are
// recycled immediately, so the emitter-side residency collapses to O(p ·
// chunk) per sender instead of O(traffic).
//
// Two sub-modes share the chunk-size knob:
//
//   - Pipelined (no transport link): chunks flush mid-emission directly
//     into the destination spare inboxes under per-destination locks,
//     tagged with (sender, class, sequence). Finalization sorts each
//     destination's tagged spans into exactly the barrier delivery order
//     (per destination: senders ascending; within one sender, unicasts in
//     emission order, then broadcasts in emission order), so consumers —
//     and therefore fingerprints — cannot tell the two paths apart. Only
//     physical arena layout and span granularity differ, and no consumer
//     observes span boundaries (they concatenate per-kind values).
//
//   - Staged (transport link attached): emission still stages into
//     sendBufs — a remote delivery cannot write into local inboxes early —
//     but batches are capped at the chunk size, so EachPending yields
//     chunk-granular frames and the wire, the fault injector, and the
//     recovery replay all operate at chunk granularity. Receive-side
//     span coalescing (Inbox.Append) makes the landed inboxes identical
//     to barrier delivery, and bits are charged per value, so accounting
//     is chunking-invariant.
//
// Every metered quantity — RecvBits, RoundStats, TotalBits, trace
// Structure — is preserved exactly; only wall-clock and peak memory move.

// DefaultStreamChunk is the chunk size, in tuples, used when streaming is
// enabled without an explicit chunk size. Large enough that per-chunk
// overhead (a lock acquisition and a span tag per flush) is amortized into
// noise, small enough that per-sender residency stays far below round
// traffic.
const DefaultStreamChunk = 4096

// MemGauge tracks a high-water mark of engine-buffered bytes across the
// clusters of one run. All methods are atomic and nil-receiver-safe, so
// clusters observe unconditionally. The gauge measures the engine's own
// communication buffers (emitter staging + delivered inbox arenas) — a
// deterministic, scheduler-independent stand-in for peak RSS that the
// -benchstream gate and the regression tests can assert exact numbers on.
type MemGauge struct {
	peak atomic.Int64
}

// Observe raises the high-water mark to b if it is higher.
func (g *MemGauge) Observe(b int64) {
	if g == nil {
		return
	}
	for {
		cur := g.peak.Load()
		if b <= cur || g.peak.CompareAndSwap(cur, b) {
			return
		}
	}
}

// Peak returns the highest observation so far (0 for a nil gauge).
func (g *MemGauge) Peak() int64 {
	if g == nil {
		return 0
	}
	return g.peak.Load()
}

// OutputSink receives the query output as a stream of row-major chunks
// instead of a materialized relation — the escape hatch for outputs larger
// than memory. Chunk may be called concurrently for different servers (one
// goroutine per server at a time); within one server, calls arrive in
// output order. vals is reused by the caller after Chunk returns: consume
// or copy synchronously. The interface lives in the engine (carried on
// Env) so strategies can reach it without import cycles.
type OutputSink interface {
	Chunk(server, arity int, vals []int64)
}

// SetStreamChunk sets the streaming chunk size in tuples; 0 (the default)
// selects barrier mode. Must be called before the cluster's first Round.
func (c *Cluster) SetStreamChunk(tuples int) {
	if tuples < 0 {
		panic("engine: stream chunk must be non-negative")
	}
	c.streamChunk = tuples
}

// AppendChunk appends one streamed chunk as a tagged, non-coalescing span:
// the pipelined twin of Append, carrying the ordering tags finalizeStream
// sorts on. sender is the emitting server, seq its per-round flush
// sequence number, broadcast the chunk's class (a sender's broadcasts
// order after its unicasts). Only the Emitter's chunk flush path may call
// this during a round — direct appends bypass the engine's metering (the
// mpclint metering analyzer flags them in strategy packages).
func (ib *Inbox) AppendChunk(sender, seq, kind, arity int, vals []int64, broadcast bool) {
	if arity < 1 {
		panic("engine: inbox chunk append arity must be positive")
	}
	if len(vals)%arity != 0 {
		panic(fmt.Sprintf("engine: inbox chunk append of %d values is not a multiple of arity %d", len(vals), arity))
	}
	if len(vals) == 0 {
		return
	}
	ib.appendChunk(sender, seq, kind, arity, vals, broadcast)
}

// appendChunk is AppendChunk without the boundary validation — the
// internal fast path for the Emitter's chunk flush, which emits only
// well-formed chunks. Caller holds the destination's lock.
func (ib *Inbox) appendChunk(sender, seq, kind, arity int, vals []int64, broadcast bool) {
	start := len(ib.arena)
	ib.arena = append(ib.arena, vals...)
	cls := int8(0)
	if broadcast {
		cls = 1
	}
	ib.spans = append(ib.spans, span{
		kind: kind, arity: arity, start: start, end: len(ib.arena),
		sender: int32(sender), seq: int32(seq), cls: cls,
	})
	ib.tuples += len(vals) / arity
	ib.prefix = nil
	ib.streamed = true
}

// finalizeStream orders a streamed inbox's spans into the barrier delivery
// order — (sender ascending, unicasts before broadcasts, flush sequence) —
// and returns the inbox's receive accounting. The sort key is unique per
// span (a sender's sequence numbers never repeat within a class), so the
// logical tuple order is exactly DeliverLocal's. On a non-streamed inbox
// it only computes the accounting.
func (ib *Inbox) finalizeStream(bitsPerValue int) (bits float64, tuples int) {
	if ib.streamed {
		sort.Slice(ib.spans, func(i, j int) bool {
			a, b := &ib.spans[i], &ib.spans[j]
			if a.sender != b.sender {
				return a.sender < b.sender
			}
			if a.cls != b.cls {
				return a.cls < b.cls
			}
			return a.seq < b.seq
		})
		ib.streamed = false
		ib.prefix = nil
	}
	for _, sp := range ib.spans {
		bits += float64((sp.end - sp.start) * bitsPerValue)
	}
	return bits, ib.tuples
}

// chunkBuf returns the emitter's pending pipelined chunk for dest,
// tracking first touches so reset stays O(touched).
func (e *Emitter) chunkBuf(dest int) *outBatch {
	if dest == Broadcast {
		return &e.pbcast
	}
	if dest < 0 || dest >= e.c.p {
		panic(fmt.Sprintf("engine: destination %d out of range [0,%d)", dest, e.c.p))
	}
	if len(e.pchunks) < e.c.p {
		// A recycled emitter may come from a smaller cluster: keep its
		// buffers and extend.
		grow := e.c.p - len(e.pchunks)
		e.pchunks = append(e.pchunks, make([]outBatch, grow)...)
		e.ptracked = append(e.ptracked, make([]bool, grow)...)
	}
	if !e.ptracked[dest] {
		e.ptracked[dest] = true
		e.ptouched = append(e.ptouched, dest)
	}
	return &e.pchunks[dest]
}

// emitStream is the pipelined emission path: values accumulate in the
// destination's chunk buffer and flush into its spare inbox whenever the
// buffer fills or the (kind, arity) changes — mid-emission, while other
// senders are still producing. The buffer is recycled in place after every
// flush, which is the whole memory story: a sender's residency is bounded
// by p+1 chunk buffers instead of its full round traffic.
func (e *Emitter) emitStream(dest, kind, arity int, vals []int64) {
	b := e.chunkBuf(dest)
	if len(b.vals) > 0 && (b.kind != kind || b.arity != arity) {
		e.flushChunk(dest, b)
	}
	b.kind, b.arity = kind, arity
	capVals := e.chunkTuples * arity
	for {
		room := capVals - len(b.vals)
		if room > len(vals) {
			b.vals = append(b.vals, vals...)
			e.noteResident(len(vals))
			return
		}
		b.vals = append(b.vals, vals[:room]...)
		e.noteResident(room)
		vals = vals[room:]
		e.flushChunk(dest, b)
		if len(vals) == 0 {
			return
		}
	}
}

// noteResident tracks the emitter's buffered-value high-water for the
// cluster's memory gauge.
func (e *Emitter) noteResident(n int) {
	e.resident += n
	if e.resident > e.residentHW {
		e.residentHW = e.resident
	}
}

// flushChunk moves one pending chunk into its destination's spare inbox
// (all p of them for a broadcast, each charged to its receiver at
// finalize), tagged for deterministic reordering, and recycles the buffer.
func (e *Emitter) flushChunk(dest int, b *outBatch) {
	n := len(b.vals)
	if n == 0 {
		return
	}
	c := e.c
	seq := e.seq
	e.seq++
	if dest == Broadcast {
		for d := 0; d < c.p; d++ {
			c.destMu[d].Lock()
			c.spare[d].appendChunk(e.self, int(seq), b.kind, b.arity, b.vals, true)
			c.destMu[d].Unlock()
		}
	} else {
		c.destMu[dest].Lock()
		c.spare[dest].appendChunk(e.self, int(seq), b.kind, b.arity, b.vals, false)
		c.destMu[dest].Unlock()
	}
	e.flushes++
	e.resident -= n
	b.vals = b.vals[:0]
}

// flushPending flushes the emitter's leftover partial chunks at the end of
// the emission phase — the pipelined counterpart of the barrier's delivery
// hand-off, after which every emitted value is in some destination arena.
func (e *Emitter) flushPending() {
	for _, d := range e.ptouched {
		e.flushChunk(d, &e.pchunks[d])
	}
	e.flushChunk(Broadcast, &e.pbcast)
}

// observeBufferedMemory records this round's engine-buffered high-water
// into the cluster's gauge: emitter-resident values plus the delivered
// inbox arenas, in bytes. Called at the end of Round, after the inbox
// swap. Barrier rounds hold the full round traffic on both sides at once —
// emitters are only reset at the next round's start — so streaming's
// recycled chunk buffers show up here as a direct, deterministic peak
// reduction; this is the number the -benchstream gate asserts on.
func (c *Cluster) observeBufferedMemory() {
	if c.mem == nil {
		return
	}
	var vals int64
	for s := 0; s < c.p; s++ {
		e := c.emitters[s]
		if e.pipelined {
			vals += int64(e.residentHW)
			continue
		}
		for _, d := range e.touched {
			for _, b := range e.perDest[d].batches {
				vals += int64(len(b.vals))
			}
		}
		for _, b := range e.bcast.batches {
			vals += int64(len(b.vals))
		}
	}
	for d := 0; d < c.p; d++ {
		vals += int64(len(c.inbox[d].arena))
	}
	c.mem.Observe(vals * 8)
}
