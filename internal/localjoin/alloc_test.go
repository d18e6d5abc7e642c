package localjoin

import "testing"

// TestKernelSteadyStateAllocations pins what a warmed Scratch allocates per
// Evaluate: the output relation and its value slice, nothing else. The
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
	}
}
