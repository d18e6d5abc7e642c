package localjoin

import (
	"math/rand"
	"testing"

	"mpcquery/internal/aggregate"
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/localjoin/baseline"
	"mpcquery/internal/query"
)

// BenchShape is one (query, relations) workload shared by the kernel
// benchmarks and the steady-state allocation test.
type BenchShape struct {
	Name string
	Q    *query.Query
	Rels map[string]*data.Relation
}

// BenchShapes builds the kernel-ablation workloads: a dense cyclic triangle
// (the HyperCube computation phase at its most join-intensive), a skewed
// star (the fragment profile a heavy-hitter block sees: few z values, long
// match chains), and a matching chain (a long join pipeline with tiny
// intermediates). Deterministic: fixed seeds, so every run benchmarks the
// same instances.
func BenchShapes() []BenchShape {
	var shapes []BenchShape

	// Dense triangle: 5000 random edges per relation over a 500-value
	// domain — heavy index probing, large output.
	rng := rand.New(rand.NewSource(1))
	tri := query.Triangle()
	triRels := make(map[string]*data.Relation)
	for _, a := range tri.Atoms {
		r := data.NewRelation(a.Name, 2)
		for i := 0; i < 5000; i++ {
			r.Append(rng.Int63n(500), rng.Int63n(500))
		}
		triRels[a.Name] = r
	}
	shapes = append(shapes, BenchShape{"triangle", tri, triRels})

	// Skewed star T_2: each relation concentrates a chunk of its tuples on
	// two heavy z-values — the fragment a dedicated heavy block evaluates,
	// where one binding fans out into long match chains.
	srng := rand.New(rand.NewSource(2))
	star := query.Star(2)
	heavy := map[int64]int{7: 1000, 11: 1000}
	starDB := data.SkewedStarDatabase(srng, 2, 8000, 1<<16, heavy)
	starRels := make(map[string]*data.Relation)
	for _, a := range star.Atoms {
		starRels[a.Name] = starDB.Get(a.Name)
	}
	shapes = append(shapes, BenchShape{"star-skewed", star, starRels})

	// Matching chain L_4: long pipeline, output exactly m.
	crng := rand.New(rand.NewSource(3))
	chainDB := data.ChainMatchingDatabase(crng, 4, 20000, 1<<20)
	chain := query.Chain(4)
	chainRels := make(map[string]*data.Relation)
	for _, a := range chain.Atoms {
		chainRels[a.Name] = chainDB.Get(a.Name)
	}
	shapes = append(shapes, BenchShape{"chain-matchings", chain, chainRels})

	return shapes
}

// BenchmarkEvaluate measures the columnar kernel against the reference
// evaluator in internal/localjoin/baseline on every ablation shape
// (kernel / baseline sub-benchmarks, same instances).
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

// outputCluster returns a cluster of p servers holding L2's fragments
// (R(x,y) and S(y,z), m matching tuples each) hash-partitioned on y over its
// first busy servers only — the inboxes of a one-round join's computation
// phase, read as often as Output is called.
func outputCluster(p, busy, m int) (*engine.Cluster, *query.Query) {
	q := query.MustParse("q(x,y,z) :- R(x,y), S(y,z)")
	rng := rand.New(rand.NewSource(35))
	c := engine.NewCluster(p, 32)
	c.Round("seed", func(s int, _ *engine.Inbox, emit *engine.Emitter) {
		if s != 0 {
			return
		}
		for i := 0; i < m; i++ {
			y := int64(i)
			emit.EmitTuple(i%busy, 0, []int64{rng.Int63n(int64(m)), y})
			emit.EmitTuple(i%busy, 1, []int64{y, rng.Int63n(int64(m))})
		}
	})
	return c, q
}

// BenchmarkOutput measures a whole plain computation phase, output assembly
// included: L2 over 64 servers, 20 000 tuples per relation and output row
// spread over all of them.
func BenchmarkOutput(b *testing.B) {
	c, q := outputCluster(64, 64, 20000)
	defer c.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out, _ := Output(c, q, engine.Env{}, nil, nil); out.NumTuples() != 20000 {
			b.Fatalf("%d output rows, want 20000", out.NumTuples())
		}
	}
}

// heavyStarCluster returns a cluster of p servers holding T2's fragments
// (S1(z,x1) and S2(z,x2), m tuples each) hash-partitioned on z, where z = 0
// has degree heavy in both relations and every other z degree 1: the server
// of z = 0 owns heavy² output rows, every server one row per light z.
func heavyStarCluster(p, m, heavy int) (*engine.Cluster, *query.Query) {
	q := query.Star(2)
	rng := rand.New(rand.NewSource(36))
	c := engine.NewCluster(p, 32)
	c.Round("seed", func(s int, _ *engine.Inbox, emit *engine.Emitter) {
		if s != 0 {
			return
		}
		for i := 0; i < m; i++ {
			z := int64(max(i-heavy+1, 0))
			for j := range q.Atoms {
				emit.EmitTuple(int(z%int64(p)), j, []int64{z, rng.Int63n(int64(m))})
			}
		}
	})
	return c, q
}

// BenchmarkOutputAggregate measures Output's aggregate tail: the fold (or,
// with pushdown off, the raw projection), the aggregate-shuffle round and
// the destinations' final fold. The L2 cases run on BenchmarkOutput's
// cluster, COUNT grouped by x; the T2 case, COUNT grouped by z, on a star
// whose one heavy z puts 10⁶ of the 1 019 000 join rows on one server — the
// rows the fold counts instead of enumerating. The round replaces the
// inboxes, so each iteration seeds a fresh cluster off the clock.
func BenchmarkOutputAggregate(b *testing.B) {
	for _, c := range []struct {
		name    string
		cluster func() (*engine.Cluster, *query.Query)
		plan    *aggregate.Plan
		rows    int64
	}{
		{"pushdown=on", func() (*engine.Cluster, *query.Query) { return outputCluster(64, 64, 20000) },
			aggregate.NewPlan(aggregate.Count, "", []string{"x"}, true), 20000},
		{"pushdown=off", func() (*engine.Cluster, *query.Query) { return outputCluster(64, 64, 20000) },
			aggregate.NewPlan(aggregate.Count, "", []string{"x"}, false), 20000},
		{"T2-heavy-z/pushdown=on", func() (*engine.Cluster, *query.Query) { return heavyStarCluster(64, 20000, 1000) },
			aggregate.NewPlan(aggregate.Count, "", []string{"z"}, true), 1000*1000 + 19000},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cl, q := c.cluster()
				b.StartTimer()
				out, _ := Output(cl, q, engine.Env{}, nil, c.plan)
				b.StopTimer()
				cl.Release()
				total := int64(0)
				for j := 0; j < out.NumTuples(); j++ {
					total += out.At(j, 1)
				}
				if total != c.rows {
					b.Fatalf("counts sum to %d, want %d", total, c.rows)
				}
				b.StartTimer()
			}
		})
	}
}
