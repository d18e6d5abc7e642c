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
// the number of bin patterns, not the 192 tuples.
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
	b.Run("dense-C3/p=512", func(b *testing.B) {
		db := denseBipartiteTriDB()
		for b.Loop() {
			planSink = PrepareGeneric(q, db, 512)
		}
	})
}
