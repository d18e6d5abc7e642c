package engine

import "testing"

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

// TestStagedHighWater pins the engine-buffer peak of one sender's round. The
// sender holds 2 values for server 1 when its group batch fills (4 values:
// 6 held, the pipelined peak), holds 2 when a kind switch flushes server 1's
// batch, and ends holding 4. Delivery lands 16 values (the group once),
// and a barrier round holds all 10 it staged.
func TestStagedHighWater(t *testing.T) {
	for _, tc := range []struct {
		chunk int
		held  int64
	}{{0, 10}, {2, 6}} {
		c := NewCluster(4, 8)
		c.SetStreamChunk(tc.chunk)
		c.mem = &MemGauge{}
		c.Round("staged", func(s int, _ *Inbox, emit *Emitter) {
			if s != 0 {
				return
			}
			emit.EmitTuple(1, 0, []int64{1, 2})
			emit.EmitFanout(2, []int{0, 1}, 1, []int64{3, 4})
			emit.EmitFanout(2, []int{0, 1}, 1, []int64{5, 6})
			emit.EmitTuple(1, 3, []int64{7, 8})
			emit.EmitTuple(Broadcast, 4, []int64{9, 10})
		})
		if got, want := c.mem.Peak(), (tc.held+16)*8; got != want {
			t.Errorf("chunk %d: peak %d B, want %d", tc.chunk, got, want)
		}
		c.Release()
	}
}
