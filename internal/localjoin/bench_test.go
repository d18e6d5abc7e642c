package localjoin

import (
	"math/rand"
	"testing"

	"mpcquery/internal/data"
	"mpcquery/internal/localjoin/baseline"
	"mpcquery/internal/query"
)

// BenchmarkEvaluate measures the columnar kernel against the preserved
// baseline evaluator on every ablation shape. The acceptance gate for the
// kernel is ≥4× ns/op and ≥10× fewer allocs/op on the triangle and skewed
// star shapes; cmd/mpcbench -benchjoin emits the same comparison as
// BENCH_localjoin.json for CI.
func BenchmarkEvaluate(b *testing.B) {
	for _, shape := range BenchShapes() {
		b.Run(shape.Name+"/kernel", func(b *testing.B) {
			s := NewScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := s.Evaluate(shape.Q, shape.Rels)
				if out.NumTuples() == 0 {
					b.Fatal("no output")
				}
			}
		})
		b.Run(shape.Name+"/baseline", func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := baseline.Evaluate(shape.Q, shape.Rels)
				if out.NumTuples() == 0 {
					b.Fatal("no output")
				}
			}
		})
	}
}

// BenchmarkEvaluateCached measures the shared-index path: the same fragment
// evaluated repeatedly with a warm IndexCache, the profile of a replicated
// HyperCube grid where whole server slices receive identical fragments.
func BenchmarkEvaluateCached(b *testing.B) {
	shape := BenchShapes()[0] // triangle
	s := NewScratch()
	byAtom := make([]*data.Relation, shape.Q.NumAtoms())
	for j, a := range shape.Q.Atoms {
		byAtom[j] = shape.Rels[a.Name]
	}
	sh := shareAll(NewIndexCache(), shape.Q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := s.EvaluateAtoms(shape.Q, byAtom, sh)
		if out.NumTuples() == 0 {
			b.Fatal("no output")
		}
	}
}

// BenchmarkJoinOrderAblation compares the greedy connected order against
// the pathological disconnected order (both chain endpoints first, forcing
// a cartesian intermediate) on L3 — the design-choice ablation for the
// evaluator's ordering heuristic.
func BenchmarkJoinOrderAblation(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	db := data.ChainMatchingDatabase(rng, 3, 2000, 1<<20)
	q := query.Chain(3)
	rels := make(map[string]*data.Relation)
	for _, a := range q.Atoms {
		rels[a.Name] = db.Get(a.Name)
	}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Evaluate(q, rels)
		}
	})
	b.Run("endpoints-first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := EvaluateOrdered(q, rels, []int{0, 2, 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
