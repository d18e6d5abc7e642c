package mpcquery

import (
	"math/rand"
	"testing"
)

// TestWarmRunAllocationCeiling pins the zero-allocation shuffle end to end:
// once the engine's pools are warm, a HyperCube run of the triangle on a
// matching database allocates a bounded number of objects — plan, cluster,
// kernel indexes, output — and that number does not grow with the input,
// because routing, emission and delivery allocate nothing per tuple. Barrier
// and streamed (pipelined) rounds are held to the same ceilings.
func TestWarmRunAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	for _, tc := range []struct {
		name      string
		streaming bool
	}{{"barrier", false}, {"streamed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			allocs := func(m int) float64 {
				q := Triangle()
				db := MatchingDatabase(rand.New(rand.NewSource(1)), q, m, int64(16*m))
				run := func() {
					if _, err := Run(q, db, WithServers(64), WithStrategy(HyperCube()), WithSeed(5),
						WithStreaming(tc.streaming)); err != nil {
						t.Fatal(err)
					}
				}
				run() // warm the inbox, emitter and scratch pools at this size
				return testing.AllocsPerRun(5, run)
			}
			small, large := allocs(4000), allocs(16000)
			t.Logf("allocations per warm run: m=4000 %.0f, m=16000 %.0f", small, large)
			if large >= 5000 {
				t.Errorf("warm run at m=16000 allocates %.0f objects, want < 5000", large)
			}
			if large > 1.5*small {
				t.Errorf("allocations scale with the input: %.0f at m=16000 vs %.0f at m=4000 (limit 1.5x)", large, small)
			}
		})
	}
}
