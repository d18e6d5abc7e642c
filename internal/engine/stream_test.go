package engine

import "testing"

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
