package engine

import (
	"sort"
	"sync/atomic"
)

// This file is the engine's streaming execution path: chunked pipelined
// rounds with bounded memory. Every round, whatever its mode, stages a
// sender's emissions into the same per-target batches (Emitter.batch and
// Emitter.group, each batch numbered by the order the sender opened it);
// streaming is only a flush threshold on them. In barrier mode (the default)
// nothing is flushed: every server fully materializes its outbound batches,
// then delivery moves everything at once — peak memory scales with total
// round traffic: every tuple is held staged once by its sender and landed
// once per target (a destination server, or a whole destination subcube for
// a replicated tuple), because the emitters still hold the full round when
// the delivered arenas land. In streaming mode a batch is flushed each time
// it holds a chunk, while senders are still producing, and its buffer is
// recycled immediately, so the emitter-side residency collapses to
// O(targets · chunk) per sender instead of O(traffic).
//
// Two sub-modes, by where the round is delivered:
//
//   - Pipelined (no transport link): a full batch flushes mid-emission
//     directly into the destination spare inboxes under per-destination
//     locks, tagged with (sender, batch, sequence); a multicast chunk
//     is copied once, into its group's first member, and listed under every
//     member. When the sender switches kind on a target, the target's batch
//     is flushed and relabelled, so each target keeps one buffer.
//     Finalization sorts each destination's tagged spans into exactly the
//     barrier delivery order (see Cluster.Round), so consumers — and
//     therefore fingerprints — cannot tell the two paths apart. Only
//     physical arena layout and span granularity differ, and no consumer
//     observes span boundaries (they concatenate per-kind values).
//
//   - Staged (transport link attached): emission stages exactly as in
//     barrier mode — a remote delivery cannot write into local inboxes
//     early — and the round crosses the wire as it would unstreamed: the
//     link cuts a record into frames only at its frame body cap, since it
//     serializes a peer's whole stream before shipping it and lands a round
//     only once all of it has arrived, so a chunk cut would bound no buffer.
//     Over a runtime, streaming thus streams the sink's output; the chunk
//     size sets the sink's chunks, not the wire's frames.
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
// communication buffers (emitter staging + delivered inbox arenas, a
// replicated tuple counted once in each) — a
// deterministic, scheduler-independent stand-in for peak RSS that the
// regression tests can assert exact numbers on.
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

// landChunk copies one chunk into the inbox's arena, records in tag (kind,
// arity and ordering tags) where it landed, and lists it. Caller holds the
// destination's lock.
func (ib *Inbox) landChunk(tag *span, vals []int64) {
	tag.start = len(ib.arena)
	ib.arena = append(ib.arena, vals...)
	tag.end = len(ib.arena)
	ib.listChunk(tag)
}

// listChunk lists one landed chunk — in this inbox's arena, or in
// tag.owner's — as a non-coalescing tagged span. Caller holds the
// destination's lock.
func (ib *Inbox) listChunk(tag *span) {
	ib.spans = append(ib.spans, *tag)
	ib.shared = ib.shared || tag.owner != nil
	ib.tuples += (tag.end - tag.start) / tag.arity
	ib.streamed = true
}

// finalizeStream orders a streamed inbox's spans into the barrier delivery
// order — sender ascending, the sender's batches in the order it opened them
// (each batch's chunks in flush order) — and returns the inbox's receive
// accounting; every listed chunk is charged, wherever it was landed. The
// sort key is unique per span (a sender's flush sequence numbers never
// repeat), so the logical tuple order is exactly DeliverLocal's. On a
// non-streamed inbox it only computes the accounting.
func (ib *Inbox) finalizeStream(bitsPerValue int) (bits float64, tuples int) {
	if ib.streamed {
		sort.Slice(ib.spans, func(i, j int) bool {
			a, b := &ib.spans[i], &ib.spans[j]
			if a.sender != b.sender {
				return a.sender < b.sender
			}
			if a.run != b.run {
				return a.run < b.run
			}
			return a.seq < b.seq
		})
		ib.streamed = false
	}
	for i := range ib.spans {
		bits += float64((ib.spans[i].end - ib.spans[i].start) * bitsPerValue)
	}
	return bits, ib.tuples
}

// flushChunk moves a batch's unflushed values, as one chunk, into its
// destination's spare inbox, tagged for deterministic reordering, and
// recycles the buffer.
func (e *Emitter) flushChunk(dest int, b *outBatch) {
	n := len(b.vals)
	if n == 0 {
		return
	}
	c := e.c
	tag := span{kind: b.kind, arity: b.arity, sender: int32(e.self), run: b.run, seq: e.seq}
	e.seq++
	c.destMu[dest].Lock()
	c.spare[dest].landChunk(&tag, b.vals)
	c.destMu[dest].Unlock()
	e.flushes++
	b.vals = b.vals[:0]
}

// flushGroup moves a multicast batch's unflushed values out as one chunk:
// copied once, into the spare inbox of the group's first member under that
// member's lock, then listed — tagged alike, as a span into that arena —
// under every other member, each charged for it at finalize.
func (e *Emitter) flushGroup(g *groupBatch) {
	n := len(g.vals)
	if n == 0 {
		return
	}
	c := e.c
	tag := span{kind: g.kind, arity: g.arity, sender: int32(e.self), run: g.run, seq: e.seq}
	e.seq++
	first := g.first()
	landed := c.spare[first]
	c.destMu[first].Lock()
	landed.landChunk(&tag, g.vals)
	c.destMu[first].Unlock()
	for _, off := range g.offsets[1:] {
		d := g.base + off
		tag.owner = landed
		if d == first {
			tag.owner = nil // a group that names its first member twice
		}
		c.destMu[d].Lock()
		c.spare[d].listChunk(&tag)
		c.destMu[d].Unlock()
	}
	e.flushes++
	g.vals = g.vals[:0]
}

// spill and spillGroup flush a batch in mid-emission — full, or relabelled
// for another kind — after raising the staged high-water.
func (e *Emitter) spill(dest int, b *outBatch) { e.noteStaged(); e.flushChunk(dest, b) }
func (e *Emitter) spillGroup(g *groupBatch)    { e.noteStaged(); e.flushGroup(g) }

// noteStaged raises the staged high-water to what the batches hold now: before
// each mid-emission flush and at the end of emission, so no emit counts per tuple.
func (e *Emitter) noteStaged() {
	n := 0
	e.eachBatch(func(_ int, b *outBatch, _ *groupBatch) { n += len(b.vals) })
	e.stagedHW = max(e.stagedHW, n)
}

// eachBatch calls f for every batch staged: to a server, or to a subcube (g).
func (e *Emitter) eachBatch(f func(dest int, b *outBatch, g *groupBatch)) {
	for _, d := range e.touched {
		for i := range e.perDest[d].batches {
			f(d, &e.perDest[d].batches[i], nil)
		}
	}
	for i := range e.groups {
		f(0, &e.groups[i].outBatch, &e.groups[i])
	}
}

// flushPending flushes what the emitter's batches still hold at the end of
// the emission phase — the pipelined counterpart of the barrier's delivery
// hand-off, after which every emitted value is in some destination arena.
func (e *Emitter) flushPending() {
	e.noteStaged()
	e.eachBatch(func(dest int, b *outBatch, g *groupBatch) {
		if g != nil {
			e.flushGroup(g)
		} else {
			e.flushChunk(dest, b)
		}
	})
}

// observeBufferedMemory records this round's engine-buffered high-water
// into the cluster's gauge: each emitter's high-water of staged-but-unflushed
// values plus the delivered inbox arenas, in bytes. Called at the end of
// Round, after the inbox swap. A barrier round flushes nothing, so its
// emitters hold the full round traffic while the delivered arenas land —
// each tuple staged once by its sender and landed once per target, however
// many servers of a subcube list it; streaming's flushed chunks show up here
// as a direct, deterministic peak reduction, the number
// TestStreamingPeakMemoryRegression asserts on.
func (c *Cluster) observeBufferedMemory() {
	if c.mem == nil {
		return
	}
	var vals int64
	for _, e := range c.emitters {
		e.noteStaged()
		vals += int64(e.stagedHW)
	}
	for d := 0; d < c.p; d++ {
		vals += int64(len(c.inbox[d].arena))
	}
	c.mem.Observe(vals * 8)
}
