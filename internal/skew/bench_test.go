package skew

import (
	"fmt"
	"math/rand"
	"testing"

	"mpcquery/internal/data"
	"mpcquery/internal/query"
)

// The Prepare* benchmarks run the statistics phase alone on the benchmark's
// skewed datasets (p = 64, domain 16·m: one x1 value of degree m/3 for the
// triangle and the generic algorithm, z degrees halving from 3·m/p for the
// star) at sizes where its growth shows; m = 10⁴ is the size benchmark/ runs.
const benchServers = 64

var benchSizes = []int{10_000, 100_000, 1_000_000}

var planSink any

func BenchmarkPrepareTriangle(b *testing.B) {
	q := query.Triangle()
	for _, m := range benchSizes {
		db := data.SkewedTriangleDatabase(rand.New(rand.NewSource(1)), m, int64(16*m), 1, m/3)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for b.Loop() {
				planSink = PrepareTriangle(q, db, benchServers)
			}
		})
	}
}

func BenchmarkPrepareStar(b *testing.B) {
	q := query.Star(2)
	for _, m := range benchSizes {
		heavy := map[int64]int{}
		for deg, v := 3*m/benchServers, int64(1); deg >= 2; deg, v = deg/2, v+1 {
			heavy[v] = deg
		}
		db := data.SkewedStarDatabase(rand.New(rand.NewSource(1)), 2, m, int64(16*m), heavy)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			for b.Loop() {
				planSink = PrepareStar(q, db, benchServers)
			}
		})
	}
}

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
