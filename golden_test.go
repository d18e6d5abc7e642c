package mpcquery

import (
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden files from current output")

// goldenCase is one pinned (strategy family, fixed workload, fixed seed)
// run. The golden file holds Report.Fingerprint() on the first line and
// Report.String() after it; any diff means a user-visible report field or
// the fingerprint scheme changed, which must be a conscious decision (run
// with -update-golden and review the diff), never an accident. run takes
// extra options for tests that vary the same run (the goldens pass none).
type goldenCase struct {
	name string
	run  func(extra ...RunOption) (*Report, error)
}

// goldenTriDB is the C3 workload of the skew goldens: a small domain so the
// instance holds triangles, and x1's hitter (degree 60) above its heavy cut
// m/3 on the 3×2×2 skew-free grid.
func goldenTriDB() *Database {
	return SkewedTriangleDatabase(rand.New(rand.NewSource(101)), 120, 1<<8, 7, 60)
}

// skewedChainDB is the L4 workload of the multi-round skew cases: a chain
// matching with x1 = 7 planted at the end of 40 of S1's tuples and at the
// start of 4 of S2's. x1 is heavy in the input, and the view S1⋈S2 is skewed
// on x2 (four values of degree 40 each).
func skewedChainDB() *Database {
	db := ChainMatchingDatabase(rand.New(rand.NewSource(108)), 4, 120, 1<<12)
	s1, s2 := db.Get("S1").Vals(), db.Get("S2").Vals()
	for i := range 40 {
		s1[2*i+1] = 7
	}
	for i := range 4 {
		s2[2*i] = 7
	}
	return db
}

func goldenCases() []goldenCase {
	const seed = 7
	mk := func(q *Query, db *Database, s Strategy, fixed ...RunOption) func(...RunOption) (*Report, error) {
		return func(extra ...RunOption) (*Report, error) {
			opts := append([]RunOption{
				WithStrategy(s), WithServers(16), WithSeed(seed),
			}, fixed...)
			return Run(q, db, append(opts, extra...)...)
		}
	}
	// Workloads are rebuilt per case from fixed generator seeds, so cases
	// stay independent and order-insensitive.
	starDB := func() *Database {
		return SkewedStarDatabase(rand.New(rand.NewSource(102)), 2, 120, 1<<12, map[int64]int{5: 40})
	}
	chainDB := func() *Database {
		return ChainMatchingDatabase(rand.New(rand.NewSource(103)), 4, 120, 1<<12)
	}
	// Local share 4000/16 = 250 > sampleSize 50, so the statistics round
	// really draws from its rng; the hitters' degrees differ between the two
	// relations, and z=9's sample count straddles the candidate cut.
	drawDB := func() *Database {
		a := SkewedStarDatabase(rand.New(rand.NewSource(106)), 2, 4000, 1<<14, map[int64]int{5: 1300, 9: 30})
		b := SkewedStarDatabase(rand.New(rand.NewSource(107)), 2, 4000, 1<<14, map[int64]int{5: 40, 9: 1100})
		db := NewDatabase(1 << 14)
		db.Add(a.Get("S1"))
		db.Add(b.Get("S2"))
		return db
	}
	matchDB := func(q *Query) *Database {
		return MatchingDatabase(rand.New(rand.NewSource(104)), q, 120, 1<<12)
	}

	return []goldenCase{
		{"hypercube", mk(Triangle(), matchDB(Triangle()), HyperCube())},
		{"hypercube-oblivious", mk(Triangle(), matchDB(Triangle()), HyperCubeOblivious())},
		{"hypercube-shares", mk(Star(2), starDB(), HyperCubeShares(4, 2, 2))},
		{"skewed-generic-star", mk(Star(2), starDB(), SkewedGeneric())},
		{"skewed-star-sampled", mk(Star(2), starDB(), SkewedStarSampled(30))},
		{"skewed-star-sampled-draws", mk(Star(2), drawDB(), SkewedStarSampled(50))},
		{"skewed-triangle", mk(Triangle(), goldenTriDB(), SkewedTriangle())},
		{"skewed-generic", mk(Triangle(), goldenTriDB(), SkewedGeneric())},
		{"chain-plan", mk(Chain(4), chainDB(), ChainPlan(0.5))},
		{"greedy-plan", mk(Chain(4), chainDB(), GreedyPlan(0.5))},
		{"greedy-plan-skewed", mk(Chain(4), skewedChainDB(), GreedyPlan(0))},
		{"auto", mk(Chain(4), chainDB(), Auto())},
		{"selfjoin", func(extra ...RunOption) (*Report, error) {
			edges := NewRelation("E", 2)
			rng := rand.New(rand.NewSource(105))
			for i := 0; i < 120; i++ {
				edges.Append(rng.Int63n(48), rng.Int63n(48))
			}
			db := NewDatabase(1 << 12)
			db.Add(edges)
			sj := SelfJoin("paths",
				Atom{Name: "E", Vars: []string{"x", "y"}},
				Atom{Name: "E", Vars: []string{"y", "z"}})
			return Run(nil, db, append([]RunOption{WithStrategy(sj), WithServers(16), WithSeed(seed)}, extra...)...)
		}},
		// Aggregate families, pushdown on and off: the pair also documents
		// that only the bit accounting may differ between the two.
		{"hypercube-agg-count", mk(Star(2), starDB(), HyperCube(),
			WithAggregate(AggCount, "", "z"))},
		{"hypercube-agg-count-nopushdown", mk(Star(2), starDB(), HyperCube(),
			WithAggregate(AggCount, "", "z"), WithAggregatePushdown(false))},
		{"hypercube-agg-sum-global", mk(Star(2), starDB(), HyperCube(),
			WithAggregate(AggSum, "x1"))},
		{"chain-plan-agg-count", mk(Chain(4), chainDB(), ChainPlan(0.5),
			WithAggregate(AggCount, "", Chain(4).Vars()[0]))},
		// The skew-aware fold: z=5's block folds its hitter's group alone.
		{"skewed-generic-agg-count", mk(Star(2), starDB(), SkewedGeneric(),
			WithAggregate(AggCount, "", "z"))},
	}
}

func TestGoldenReports(t *testing.T) {
	for _, c := range goldenCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			rep, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			got := rep.Fingerprint() + "\n" + rep.String()
			path := filepath.Join("testdata", "golden", c.name+".golden")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("report diverged from %s (rerun with -update-golden only if the change is intended)\n--- got ---\n%s\n--- want ---\n%s",
					path, got, want)
			}
		})
	}
}

// TestGoldenAggregatePairBitIdenticalValues asserts, on the golden pair, the
// acceptance property in its sharpest form: everything except the bit
// accounting of the aggregate round is identical between pushdown and
// no-pushdown — same groups, same values, same rounds, same input shuffle.
func TestGoldenAggregatePairBitIdenticalValues(t *testing.T) {
	var on, off *Report
	for _, c := range goldenCases() {
		switch c.name {
		case "hypercube-agg-count":
			r, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			on = r
		case "hypercube-agg-count-nopushdown":
			r, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			off = r
		}
	}
	if !EqualRelations(on.Output, off.Output) {
		t.Fatal("golden aggregate pair: values differ between pushdown and no-pushdown")
	}
	strip := func(r *Report) string {
		fp := r.Fingerprint()
		// Blank the fields that legitimately differ: per-round loads of the
		// aggregate round, totals, replication, and the saved-bits meter.
		for _, cut := range []string{"|r2=", "|L=", "|T=", "|rep=", "|aggsaved="} {
			if i := strings.Index(fp, cut); i >= 0 {
				j := strings.IndexByte(fp[i+1:], '|')
				if j < 0 {
					fp = fp[:i]
				} else {
					fp = fp[:i] + fp[i+1+j:]
				}
			}
		}
		return fp
	}
	if a, b := strip(on), strip(off); a != b {
		t.Fatalf("golden aggregate pair differs beyond bit accounting:\n%s\n%s", a, b)
	}
}
