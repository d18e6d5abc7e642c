package localjoin

import (
	"testing"

	"mpcquery/internal/aggregate"
	"mpcquery/internal/engine"
)

// TestKernelSteadyStateAllocations pins what a warmed Scratch allocates per
// Evaluate and per EvaluateAtomsAggregate: the output relation and its value
// slice, nothing else. The
// ceiling is the measured count, so any allocation that creeps into the
// join loop (a tracing hook, a per-call map, a grown buffer that is not
// kept) fails here rather than showing up as GC time in a benchmark.
func TestKernelSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds an allocation per Evaluate (3 measured against 2)")
	}
	const ceiling = 2
	for _, shape := range BenchShapes() {
		t.Run(shape.Name, func(t *testing.T) {
			sc := NewScratch()
			// Warm the scratch past its cold-start growth (pools, index
			// tables, buffer capacities).
			for i := 0; i < 50; i++ {
				sc.Evaluate(shape.Q, shape.Rels)
			}
			rows := 0
			allocs := testing.AllocsPerRun(200, func() {
				rows = sc.Evaluate(shape.Q, shape.Rels).NumTuples()
			})
			if rows == 0 {
				t.Fatal("kernel produced no output")
			}
			if allocs > ceiling {
				t.Errorf("steady-state Evaluate: %v allocs per run, ceiling %d", allocs, ceiling)
			}
		})
		// The fold path keeps its table, group key and count memos in the
		// scratch: a warm fold allocates the partial relation it returns
		// and its value slice.
		t.Run(shape.Name+"/aggregate", func(t *testing.T) {
			const aggCeiling = 2
			sc := NewScratch()
			rels := sc.byAtom(shape.Q, shape.Rels)
			plan := aggregate.NewPlan(aggregate.Count, "", shape.Q.Vars()[:1], true)
			for i := 0; i < 50; i++ {
				sc.EvaluateAtomsAggregate(shape.Q, rels, nil, plan)
			}
			rows := 0
			allocs := testing.AllocsPerRun(200, func() {
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
