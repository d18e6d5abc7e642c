package mpcquery

import (
	"math/rand"
	"strings"
	"testing"

	"mpcquery/internal/data"
	"mpcquery/internal/packing"
	"mpcquery/internal/query"
)

func mustRun(t *testing.T, q *Query, db *Database, opts ...RunOption) *Report {
	t.Helper()
	rep, err := Run(q, db, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestPublicAPIQuickstart exercises the documented quick-start flow.
func TestPublicAPIQuickstart(t *testing.T) {
	q := Triangle()
	rng := rand.New(rand.NewSource(1))
	db := MatchingDatabase(rng, q, 1000, 1<<20)
	res := mustRun(t, q, db, WithServers(64), WithSeed(42))
	if res.MaxLoadBits <= 0 {
		t.Fatal("no load measured")
	}
	want := SequentialAnswer(q, db)
	if !data.Equal(res.Output, want) {
		t.Fatal("output mismatch")
	}
}

func TestPublicAPIParseAndBounds(t *testing.T) {
	q := query.MustParse("q(x,y,z) :- R(x,y), S(y,z), T(z,x)")
	tau, u := TauStar(q)
	if tau != 1.5 {
		t.Errorf("τ*=%v want 1.5", tau)
	}
	if len(u) != 3 {
		t.Errorf("packing len=%d", len(u))
	}
	if got := SpaceExponentLB(q); got < 0.33 || got > 0.34 {
		t.Errorf("ε=%v want 1/3", got)
	}
	M := []float64{1 << 20, 1 << 20, 1 << 20}
	lower, _ := LoadLowerBound(q, M, 64)
	upper := packing.ShareExponents(q, M, 64).Load()
	if lower <= 0 || upper/lower > 1.001 || lower/upper > 1.001 {
		t.Errorf("bounds: lower=%v upper=%v", lower, upper)
	}
}

func TestPublicAPIMultiRound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	db := ChainMatchingDatabase(rng, 8, 200, 1<<20)
	if ChainRounds(8, 0) != 3 {
		t.Error("formula disagrees")
	}
	res := mustRun(t, Chain(8), db, WithStrategy(ChainPlan(0)), WithServers(32), WithSeed(7))
	if res.Output.NumTuples() != 200 || res.Rounds != 3 {
		t.Fatalf("output=%d in %d rounds, want 200 in 3", res.Output.NumTuples(), res.Rounds)
	}
}

func TestPublicAPISkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := Star(2)
	db := SkewedStarDatabase(rng, 2, 300, 1<<20, map[int64]int{7: 150})
	res := mustRun(t, q, db, WithStrategy(SkewedGeneric()), WithServers(8), WithSeed(5))
	want := SequentialAnswer(q, db)
	if !data.Equal(res.Output, want) {
		t.Fatal("skewed star mismatch")
	}
	tri := SkewedTriangleDatabase(rng, 300, 1<<20, 5, 100)
	tr := mustRun(t, Triangle(), tri, WithStrategy(SkewedTriangle()), WithServers(27), WithSeed(5))
	if !data.Equal(tr.Output, SequentialAnswer(Triangle(), tri)) {
		t.Fatal("skewed triangle mismatch")
	}
}

func TestPublicAPIConnectedComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := LayeredPathGraph(rng, 16, 10)
	lp := ConnectedComponentsLabelProp(g, 8, 1)
	pj := ConnectedComponentsPointerJump(g, 8, 1)
	if len(lp.Labels) != len(pj.Labels) {
		t.Fatal("label count mismatch")
	}
	for v, l := range lp.Labels {
		if pj.Labels[v] != l {
			t.Fatalf("vertex %d: %d vs %d", v, l, pj.Labels[v])
		}
	}
	if pj.IterRounds >= lp.IterRounds {
		t.Errorf("pointer jumping %d rounds should beat label prop %d", pj.IterRounds, lp.IterRounds)
	}
}

func TestPublicAPIBoundsAndTools(t *testing.T) {
	if RoundsUB(Chain(8), 0) < 3 {
		t.Error("L8 rounds UB")
	}
	freq := []map[int64]float64{{1: 100}, {1: 100}}
	if lb := StarSkewLB(freq, 4); lb <= 0 {
		t.Errorf("star LB: %v", lb)
	}
}

func TestPublicAPICSVAndStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rel, err := ReadRelationCSV(strings.NewReader("1,2\n3,4\n"), "R", 2)
	if err != nil || rel.NumTuples() != 2 {
		t.Fatalf("csv: %v %d", err, rel.NumTuples())
	}
	gen := mustRun(t, Star(2), SkewedStarDatabase(rng, 2, 200, 1<<16, map[int64]int{5: 100}),
		WithStrategy(SkewedGeneric()), WithServers(8), WithSeed(3))
	if gen.Rounds != 1 {
		t.Errorf("generic rounds: %d", gen.Rounds)
	}
	sampled := mustRun(t, Star(2), SkewedStarDatabase(rng, 2, 200, 1<<16, map[int64]int{5: 100}),
		WithStrategy(SkewedStarSampled(50)), WithServers(8), WithSeed(3))
	if sampled.Rounds != 2 {
		t.Errorf("sampled rounds: %d", sampled.Rounds)
	}
	q2, mapping := DesugarSelfJoins("p2", []Atom{{Name: "E", Vars: []string{"x", "y"}}, {Name: "E", Vars: []string{"y", "z"}}})
	if q2.NumAtoms() != 2 || len(mapping) != 2 {
		t.Error("desugar")
	}
	e := NewRelation("E", 2)
	e.Append(1, 2)
	e.Append(2, 3)
	gdb := NewDatabase(16)
	gdb.Add(e)
	sj := mustRun(t, nil, gdb, WithStrategy(SelfJoin("p2", Atom{Name: "E", Vars: []string{"x", "y"}}, Atom{Name: "E", Vars: []string{"y", "z"}})),
		WithServers(4), WithSeed(1))
	if sj.Output.NumTuples() != 1 {
		t.Errorf("self-join paths: %d want 1", sj.Output.NumTuples())
	}
}
