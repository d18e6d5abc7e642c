package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// inboxSnapshot flattens an inbox to a comparable string: every tuple, in
// delivery order, with its kind — the engine's full observable content.
func inboxSnapshot(ib *Inbox) string {
	var s strings.Builder
	for i := 0; i < ib.NumTuples(); i++ {
		kind, row := ib.Tuple(i)
		fmt.Fprintf(&s, "k%d%v;", kind, row)
	}
	return s.String()
}

// runScripted drives a deterministic random emission script (seeded per
// round and server, mixing unicast tuples, batches, fan-outs, broadcasts,
// and broadcast batches) through nRounds rounds of a cluster and returns the
// per-round stats plus every inbox's final snapshot.
func runScripted(c *Cluster, p, nRounds int) (stats []RoundStats, inboxes []string) {
	for r := 0; r < nRounds; r++ {
		st := c.Round("scripted", func(s int, _ *Inbox, emit *Emitter) {
			rng := rand.New(rand.NewSource(int64(r*100 + s)))
			for i := 0; i < 30; i++ {
				kind := rng.Intn(3)
				switch rng.Intn(5) {
				case 0:
					emit.EmitTuple(rng.Intn(p), kind, []int64{int64(s), int64(i)})
				case 1:
					vals := make([]int64, 0, 12)
					for j := 0; j < 2+rng.Intn(5); j++ {
						vals = append(vals, int64(s), int64(i*10+j))
					}
					emit.EmitBatch(rng.Intn(p), kind, 2, vals)
				case 2:
					emit.EmitTuple(Broadcast, kind, []int64{int64(s), int64(i), 7})
				case 3:
					emit.EmitBatch(Broadcast, kind, 3, []int64{int64(s), int64(i), 1, int64(s), int64(i), 2})
				case 4:
					emit.EmitFanout(rng.Intn(p-2), []int{0, 2, 1}, kind, []int64{int64(s), int64(i)})
				}
			}
		})
		stats = append(stats, st)
	}
	for s := 0; s < p; s++ {
		inboxes = append(inboxes, inboxSnapshot(c.Inbox(s)))
	}
	return stats, inboxes
}

// TestPipelinedDeliveryMatchesBarrier is the engine-level differential: the
// same scripted emissions, run through barrier delivery and through
// pipelined streaming at several chunk sizes, must produce byte-identical
// inbox contents (tuples, kinds, order) and identical round accounting
// (bits, tuples, max load). This pins the delivery-order contract — per
// destination: senders ascending; within a sender: emission order, then
// its broadcasts — independently of when chunks physically flush.
func TestPipelinedDeliveryMatchesBarrier(t *testing.T) {
	const p, nRounds = 5, 3
	ref := NewCluster(p, 10)
	defer ref.Release()
	wantStats, wantInboxes := runScripted(ref, p, nRounds)

	for _, chunk := range []int{1, 3, 7, 1 << 20} {
		c := NewCluster(p, 10)
		c.SetStreamChunk(chunk)
		gotStats, gotInboxes := runScripted(c, p, nRounds)
		for r := range wantStats {
			if gotStats[r].TotalRecvBits != wantStats[r].TotalRecvBits ||
				gotStats[r].MaxRecvBits != wantStats[r].MaxRecvBits ||
				gotStats[r].TotalRecvTuples != wantStats[r].TotalRecvTuples {
				t.Errorf("chunk=%d round %d stats = %+v, want %+v", chunk, r, gotStats[r], wantStats[r])
			}
		}
		for s := range wantInboxes {
			if gotInboxes[s] != wantInboxes[s] {
				t.Errorf("chunk=%d server %d inbox diverged\n got %s\nwant %s", chunk, s, gotInboxes[s], wantInboxes[s])
			}
		}
		c.Release()
	}
}

// TestCombinerChunkBoundaryOrder pins a regression the streaming rework
// could have introduced: the combiner's first-touch insertion order for
// same-key merges must survive the chunked flush even when the merged
// batch spans a chunk boundary. Five distinct keys flush as chunks of two;
// keys 10 and 30 were re-Added after other keys — their merged rows must
// still sit at their first-touch positions, one row per key.
func TestCombinerChunkBoundaryOrder(t *testing.T) {
	run := func(chunk int) *Cluster {
		c := NewCluster(2, 8)
		if chunk > 0 {
			c.SetStreamChunk(chunk)
		}
		c.Round("combine", func(s int, _ *Inbox, emit *Emitter) {
			if s != 0 {
				return
			}
			cb := emit.Combiner(3, 1, func(a, b int64) int64 { return a + b })
			cb.Add(1, []int64{10, 1})
			cb.Add(1, []int64{20, 2})
			cb.Add(1, []int64{30, 3})
			cb.Add(1, []int64{40, 4})
			cb.Add(1, []int64{10, 100}) // merge across what becomes a chunk boundary
			cb.Add(1, []int64{50, 5})
			cb.Add(1, []int64{30, 300})
			cb.Flush()
		})
		return c
	}

	want := [][2]int64{{10, 101}, {20, 2}, {30, 303}, {40, 4}, {50, 5}}
	for _, chunk := range []int{0, 1, 2, 3} {
		c := run(chunk)
		ib := c.Inbox(1)
		if ib.NumTuples() != len(want) {
			t.Fatalf("chunk=%d: %d rows, want %d", chunk, ib.NumTuples(), len(want))
		}
		for i, w := range want {
			kind, row := ib.Tuple(i)
			if kind != 3 || row[0] != w[0] || row[1] != w[1] {
				t.Errorf("chunk=%d row %d = kind %d %v, want kind 3 %v", chunk, i, kind, row, w)
			}
		}
		c.Release()
	}
}

// TestMemGauge covers the gauge's high-water semantics and nil safety.
func TestMemGauge(t *testing.T) {
	var g *MemGauge
	g.Observe(100) // nil-safe no-op
	g = &MemGauge{}
	g.Observe(10)
	g.Observe(50)
	g.Observe(20)
	if g.Peak() != 50 {
		t.Fatalf("Peak = %d, want 50", g.Peak())
	}
}

// TestSetStreamChunkValidation: negative chunk sizes are a caller bug.
func TestSetStreamChunkValidation(t *testing.T) {
	c := NewCluster(2, 8)
	defer c.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("SetStreamChunk(-1) did not panic")
		}
	}()
	c.SetStreamChunk(-1)
}

// TestAppendChunkValidation: malformed chunk appends are caller bugs and
// must fail loudly, not corrupt the arena.
func TestAppendChunkValidation(t *testing.T) {
	ib := &Inbox{}
	for _, bad := range []func(){
		func() { ib.AppendChunk(0, 0, 0, 0, []int64{1}, false) },       // arity < 1
		func() { ib.AppendChunk(0, 0, 0, 2, []int64{1, 2, 3}, false) }, // ragged vals
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("malformed AppendChunk did not panic")
				}
			}()
			bad()
		}()
	}
}
