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
// where its growth shows; m = 10⁴ is the size benchmark/ runs.
const benchServers = 64

var benchSizes = []int{10_000, 100_000, 1_000_000}

var planSink any

func BenchmarkPrepareGeneric(b *testing.B) {
	q := query.Triangle()
	for _, m := range benchSizes {
		db := data.SkewedTriangleDatabase(rand.New(rand.NewSource(1)), m, int64(16*m), 1, m/3)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for b.Loop() {
				planSink = PrepareGeneric(q, db, benchServers, 8)
			}
		})
	}
}
