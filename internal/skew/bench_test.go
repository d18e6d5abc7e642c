package skew

import (
	"fmt"
	"math/rand"
	"testing"

	"mpcquery/internal/data"
	"mpcquery/internal/query"
)

// BenchmarkPrepareGeneric runs the statistics phase alone on the benchmark's
// skewed triangle (p = 64, domain 16·m, one x1 value of degree m/3) at sizes
// where its growth shows; m = 10⁴ is the size benchmark/ runs. The dense case
// is the bipartite C3 at p = 512, where all 48 values are heavy: its cost is
// the number of bin patterns, not the 192 tuples. The no-heavy case is a
// multi-round plan node over skew-free views: the chain L2 on matchings of
// m = 10⁴ at p = 16, where data.Heavy's screen finds no candidate and no
// candidate is counted.
const benchServers = 64

var benchSizes = []int{10_000, 100_000, 1_000_000}

var planSink any

func BenchmarkPrepareGeneric(b *testing.B) {
	q := query.Triangle()
	for _, m := range benchSizes {
		db := data.SkewedTriangleDatabase(rand.New(rand.NewSource(1)), m, int64(16*m), 1, m/3)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for b.Loop() {
				planSink = PrepareGeneric(q, db, benchServers)
			}
		})
	}
	b.Run("no-heavy-L2/p=16", func(b *testing.B) {
		l2 := query.Chain(2)
		db := data.ChainMatchingDatabase(rand.New(rand.NewSource(1)), 2, 10_000, 1<<20)
		for b.Loop() {
			planSink = PrepareGeneric(l2, db, 16)
		}
	})
	b.Run("dense-C3/p=512", func(b *testing.B) {
		db := denseBipartiteTriDB()
		for b.Loop() {
			planSink = PrepareGeneric(q, db, 512)
		}
	})
}

var statsSink *StatsResult

// BenchmarkStatsRound runs the sampled statistics round alone on the
// benchmark's T2-geo star (p = 64, m = 10⁴, domain 16·m, z degrees 3·m/p
// halving down to m/(16·p)). A server holds about 156 tuples per atom, all
// of them sampled, so the round counts each server's whole share against
// the candidate floor m/(4p) = 39.
func BenchmarkStatsRound(b *testing.B) {
	const m = 10_000
	heavy := map[int64]int{}
	for deg, v := 3*m/benchServers, int64(1); deg >= max(2, m/(16*benchServers)); deg, v = deg/2, v+1 {
		heavy[v] = deg
	}
	q := query.Star(2)
	spec := StarStatsSpec(q, data.SkewedStarDatabase(rand.New(rand.NewSource(1)), 2, m, 16*m, heavy), benchServers)
	for b.Loop() {
		statsSink = spec.Run(benchServers, 1_000, 1, 0)
	}
}
