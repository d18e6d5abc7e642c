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
