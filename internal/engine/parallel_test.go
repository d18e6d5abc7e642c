package engine

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"mpcquery/internal/data"
)

func TestParallelForRunsAll(t *testing.T) {
	var sum int64
	ParallelFor(100, func(i int) { atomic.AddInt64(&sum, int64(i)) })
	if sum != 4950 {
		t.Fatalf("sum=%d want 4950", sum)
	}
}

func TestParallelForSmallN(t *testing.T) {
	hits := make([]bool, 1)
	ParallelFor(1, func(i int) { hits[i] = true })
	if !hits[0] {
		t.Error("n=1 not executed")
	}
	ParallelFor(0, func(i int) { t.Error("n=0 must not call f") })
}

func TestParallelForPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("panic should propagate to the caller")
		}
	}()
	ParallelFor(50, func(i int) {
		if i == 25 {
			panic("boom")
		}
	})
}

func TestParallelForWorkersIdsInRange(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	const n = 200
	seen := make([]int32, n)
	ParallelForWorkers(n, func(i, w int) {
		if w < 0 || w >= workers {
			t.Errorf("worker id %d out of [0,%d)", w, workers)
		}
		atomic.AddInt32(&seen[i], 1)
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("item %d executed %d times", i, c)
		}
	}
}

// TestParallelForWorkersSequentialPerWorker pins the property per-worker
// scratch reuse relies on: items assigned to one worker id never run
// concurrently, so unsynchronized per-worker state is safe.
func TestParallelForWorkersSequentialPerWorker(t *testing.T) {
	workers := runtime.GOMAXPROCS(0)
	busy := make([]atomic.Bool, workers)
	ParallelForWorkers(500, func(i, w int) {
		if !busy[w].CompareAndSwap(false, true) {
			t.Errorf("worker %d entered concurrently", w)
		}
		busy[w].Store(false)
	})
}

func TestClusterComputeTimesPhases(t *testing.T) {
	c := NewCluster(4, 8)
	defer c.Release()
	c.Seed(0, 0, []int64{1, 2})
	c.Round("r", func(s int, inbox *Inbox, emit *Emitter) {
		inbox.Each(func(kind int, tu []int64) { emit.EmitTuple((s+1)%4, kind, tu) })
	})
	c.Compute(func(server int, _ *Inbox, worker int) {})
	rec := c.Record(nil, 0)
	compute, comm := rec.ComputeSeconds, rec.CommSeconds
	if compute <= 0 {
		t.Errorf("compute seconds not accounted: %g", compute)
	}
	if comm <= 0 {
		t.Errorf("comm seconds not accounted: %g", comm)
	}
}

// TestConcat holds Concat to a serial append: spans of the output are copied
// by different workers, so part boundaries inside a span, spans inside a
// part, empty and nil parts (size -1) and an empty whole must all land byte
// for byte in part order, with one worker and with more workers than the box
// has cores.
func TestConcat(t *testing.T) {
	part := func(tuples int, first int64) *data.Relation {
		r := data.NewRelation("part", 3)
		for i := 0; i < tuples; i++ {
			r.Append(first, int64(i), -first)
		}
		return r
	}
	const big = 100_000 // 300 000 values: several copy spans
	cases := map[string][]int{
		"no parts":             {},
		"empty parts":          {0, 0, 0},
		"one part":             {17},
		"fewer than workers":   {big, 5},
		"more than workers":    {3, 0, 2000, 1, 0, 0, 40_000, 7, 30_000, 0, 1},
		"huge among empty":     {0, 0, 0, 0, big, 0, 0, 0},
		"part ends on a span":  {1 << 16, 0, 1, big}, // 3·2¹⁶ values: exactly three spans
		"many tiny then large": append(make([]int, 300), big),
		"nil parts":            {-1, 3, -1, -1, big, -1},
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for name, sizes := range cases {
			parts := make([]*data.Relation, len(sizes))
			want := data.NewRelation("out", 3)
			for i, n := range sizes {
				if n < 0 {
					continue
				}
				parts[i] = part(n, int64(i+1))
				want.AppendVals(parts[i].Vals())
			}
			got := Concat("out", 3, parts)
			if got.Name != "out" || got.Arity != 3 || !slices.Equal(got.Vals(), want.Vals()) {
				t.Errorf("GOMAXPROCS=%d, %s: Concat differs from the serial append (%d vs %d tuples)",
					procs, name, got.NumTuples(), want.NumTuples())
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
