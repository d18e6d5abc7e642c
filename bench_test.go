package mpcquery

// BenchmarkHyperCubeEndToEnd is a throughput reference for the engine
// substrate under `go test -bench`. The paper's tables are regenerated by
// cmd/mpcbench and asserted by the internal/experiments tests; end-to-end
// and per-layer timings come from `bash benchmark/run.sh`.

import (
	"math/rand"
	"strconv"
	"testing"
)

// BenchmarkHyperCubeEndToEnd measures the simulator itself: one-round
// HyperCube triangle runs at increasing p.
func BenchmarkHyperCubeEndToEnd(b *testing.B) {
	for _, p := range []int{8, 64, 512} {
		b.Run("p="+strconv.Itoa(p), func(b *testing.B) {
			q := Triangle()
			rng := rand.New(rand.NewSource(1))
			db := MatchingDatabase(rng, q, 5000, 1<<20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(q, db, WithServers(p), WithSeed(int64(i)))
				if err != nil || res.MaxLoadBits <= 0 {
					b.Fatal("no load")
				}
			}
			b.ReportMetric(float64(3*5000)/1e3, "ktuples/run")
		})
	}
}
