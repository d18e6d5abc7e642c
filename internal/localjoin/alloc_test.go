package localjoin

import (
	"runtime"
	"runtime/debug"
	"testing"

	"mpcquery/internal/aggregate"
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
)

// TestKernelSteadyStateAllocations pins what a warmed Scratch allocates per
// call: Evaluate and EvaluateAtomsAggregate allocate the relation they return
// and its value slice, nothing else, and EvaluateAtomsStream allocates
// nothing (its block is the scratch's). The ceilings are the measured
// counts, so any allocation that creeps into the join loop (a tracing hook,
// a per-call map, a grown buffer that is not kept) fails here rather than
// showing up as GC time in a benchmark.
//
// The calls are counted with the collector off (measureAllocs): a GC cycle's
// cleanup goroutines allocate on their own, about two objects a cycle, and a
// shape whose output is tens of megabytes would be charged for them. Each
// shape's run count is sized by its cost (allocRuns).
func TestKernelSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds an allocation per Evaluate (3 measured against 2)")
	}
	const ceiling, streamCeiling = 2, 0
	for _, shape := range BenchShapes() {
		sc := NewScratch()
		rels := sc.byAtom(shape.Q, shape.Rels)
		runs := allocRuns(sc.Evaluate(shape.Q, shape.Rels))
		t.Run(shape.Name, func(t *testing.T) {
			rows := 0
			allocs := measureAllocs(runs, func() {
				rows = sc.Evaluate(shape.Q, shape.Rels).NumTuples()
			})
			if rows == 0 {
				t.Fatal("kernel produced no output")
			}
			if allocs > ceiling {
				t.Errorf("steady-state Evaluate: %v allocs per run over %d runs, ceiling %d", allocs, runs, ceiling)
			}
		})
		t.Run(shape.Name+"/stream", func(t *testing.T) {
			rows := 0
			allocs := measureAllocs(runs, func() {
				rows = sc.EvaluateAtomsStream(shape.Q, rels, nil, 1000, func([]int64) {})
			})
			if rows == 0 {
				t.Fatal("kernel streamed no output")
			}
			if allocs > streamCeiling {
				t.Errorf("steady-state EvaluateAtomsStream: %v allocs per run over %d runs, ceiling %d", allocs, runs, streamCeiling)
			}
		})
		// The fold path keeps its table, group key and count memos in the
		// scratch: a warm fold allocates the partial relation it returns
		// and its value slice.
		t.Run(shape.Name+"/aggregate", func(t *testing.T) {
			const aggCeiling = 2
			plan := aggregate.NewPlan(aggregate.Count, "", shape.Q.Vars()[:1], true)
			partials, rows := sc.EvaluateAtomsAggregate(shape.Q, rels, nil, plan)
			allocs := measureAllocs(allocRuns(partials), func() {
				_, rows = sc.EvaluateAtomsAggregate(shape.Q, rels, nil, plan)
			})
			if rows == 0 {
				t.Fatal("kernel folded no row")
			}
			if allocs > aggCeiling {
				t.Errorf("steady-state EvaluateAtomsAggregate: %v allocs per run, ceiling %d", allocs, aggCeiling)
			}
		})
	}
}

// allocRuns sizes an allocation measurement by the cost of one call, read
// off the relation the call returned: about 2²¹ output values in all, so
// that the garbage left with the collector off stays near 16 MB, within 3
// and 200 runs. The skewed star's 6·10⁶ values a call take the 3.
func allocRuns(out *data.Relation) int {
	return max(3, min(200, (1<<21)/max(len(out.Vals()), 1)))
}

// measureAllocs is testing.AllocsPerRun with the collector off for the
// measured calls, after a few warm-up calls that grow the scratch past its
// cold-start sizes (pools, index tables, buffer capacities).
func measureAllocs(runs int, f func()) float64 {
	for i := 0; i < 5; i++ {
		f()
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// TestOutputAllocationsFlatInServers pins that a warm plain computation
// phase allocates nothing per server: Output at p = 64 with 1, 8 and 64
// non-empty servers (the same rows in all three) allocates the same number
// of objects, up to a small slack. Each worker appends its servers' rows to its scratch's output
// arena and the gather reads them in place; a per-server output relation
// would add two allocations per non-empty server.
func TestOutputAllocationsFlatInServers(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations per evaluation")
	}
	counts := make(map[int]float64)
	for _, busy := range []int{1, 8, 64} {
		c, q := outputCluster(64, busy, 2000)
		for i := 0; i < 20; i++ {
			Output(c, q, engine.Env{}, nil, nil)
		}
		counts[busy] = testing.AllocsPerRun(50, func() {
			if out, _ := Output(c, q, engine.Env{}, nil, nil); out.NumTuples() != 2000 {
				t.Fatalf("%d busy servers: %d output rows, want 2000", busy, out.NumTuples())
			}
		})
		c.Release()
	}
	// Which worker claims which server varies by run, so a worker's arena
	// may still grow once in a while past its warm-up size.
	const slack = 2
	if counts[8] > counts[1]+slack || counts[64] > counts[1]+slack {
		t.Errorf("warm Output allocates %v objects with 1 non-empty server, %v with 8, %v with 64: the count grows with the servers",
			counts[1], counts[8], counts[64])
	}
}
