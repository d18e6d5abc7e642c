package mpcquery

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

func TestRunDefaultStrategy(t *testing.T) {
	q := Triangle()
	rng := rand.New(rand.NewSource(1))
	db := MatchingDatabase(rng, q, 1000, 1<<20)
	rep, err := Run(q, db, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy != "hypercube" {
		t.Errorf("strategy=%q want hypercube", rep.Strategy)
	}
	if rep.Rounds != 1 || len(rep.RoundStats) != 1 {
		t.Errorf("rounds=%d stats=%d want 1/1", rep.Rounds, len(rep.RoundStats))
	}
	if rep.MaxLoadBits <= 0 || rep.InputBits <= 0 || rep.ReplicationRate <= 0 {
		t.Errorf("degenerate report: %+v", rep)
	}
	if len(rep.Shares) != q.NumVars() {
		t.Errorf("shares=%v want one per variable", rep.Shares)
	}
	if rep.PredictedLoadBits <= 0 || rep.LoadRatio() <= 0 {
		t.Errorf("no load prediction: %+v", rep)
	}
	if !EqualRelations(rep.Output, SequentialAnswer(q, db)) {
		t.Fatal("output mismatch vs sequential join")
	}
	if s := rep.String(); !strings.Contains(s, "hypercube") || !strings.Contains(s, "rounds") {
		t.Errorf("report string: %q", s)
	}
}

// TestRunCrossStrategyChain is the redesign's raison d'être: every strategy
// applicable to the chain L4, executed through the one entry point, must
// produce the same output relation on a shared database.
func TestRunCrossStrategyChain(t *testing.T) {
	k := 4
	q := Chain(k)
	rng := rand.New(rand.NewSource(2))
	db := ChainMatchingDatabase(rng, k, 400, 1<<20)
	want := SequentialAnswer(q, db)

	shares := make([]int, q.NumVars())
	for i := range shares {
		shares[i] = 1
	}
	shares[q.VarIndex("x2")] = 4 // a deliberately bad manual grid

	strategies := []Strategy{
		HyperCube(),
		HyperCubeOblivious(),
		HyperCubeShares(shares...),
		SkewedGeneric(),
		ChainPlan(0),
		ChainPlan(0.5),
		GreedyPlan(0),
		Auto(),
	}
	for _, s := range strategies {
		rep, err := Run(q, db, WithStrategy(s), WithServers(16), WithSeed(7))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !EqualRelations(rep.Output, want) {
			t.Errorf("%s: output %d tuples, want %d", s.Name(), rep.Output.NumTuples(), want.NumTuples())
		}
		if rep.Rounds < 1 || rep.MaxLoadBits <= 0 {
			t.Errorf("%s: degenerate report rounds=%d load=%v", s.Name(), rep.Rounds, rep.MaxLoadBits)
		}
	}
}

func TestRunStarStrategies(t *testing.T) {
	q := Star(2)
	rng := rand.New(rand.NewSource(3))
	db := SkewedStarDatabase(rng, 2, 400, 1<<20, map[int64]int{7: 200})
	want := SequentialAnswer(q, db)

	for _, s := range []Strategy{HyperCube(), SkewedStarSampled(100), SkewedGeneric()} {
		rep, err := Run(q, db, WithStrategy(s), WithServers(8), WithSeed(5))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !EqualRelations(rep.Output, want) {
			t.Errorf("%s: output mismatch", s.Name())
		}
	}

	rep, err := Run(q, db, WithStrategy(SkewedGeneric()), WithServers(8), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.HeavyHitters == 0 {
		t.Error("skewed-generic saw no heavy hitters on a half-skewed input")
	}
	sampled, err := Run(q, db, WithStrategy(SkewedStarSampled(100)), WithServers(8), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if sampled.Rounds != 2 {
		t.Errorf("sampled rounds=%d want 2 (stats round + data round)", sampled.Rounds)
	}
}

func TestRunTriangleStrategies(t *testing.T) {
	q := Triangle()
	rng := rand.New(rand.NewSource(4))
	db := SkewedTriangleDatabase(rng, 400, 1<<20, 5, 100)
	want := SequentialAnswer(q, db)
	for _, s := range []Strategy{HyperCube(), SkewedTriangle(), SkewedGeneric(), Auto()} {
		rep, err := Run(q, db, WithStrategy(s), WithServers(27), WithSeed(5))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !EqualRelations(rep.Output, want) {
			t.Errorf("%s: output mismatch", s.Name())
		}
	}
}

func TestRunSelfJoin(t *testing.T) {
	e := NewRelation("E", 2)
	e.Append(1, 2)
	e.Append(2, 3)
	e.Append(3, 1)
	db := NewDatabase(16)
	db.Add(e)
	atoms := []Atom{{Name: "E", Vars: []string{"x", "y"}}, {Name: "E", Vars: []string{"y", "z"}}}
	rep, err := Run(nil, db, WithStrategy(SelfJoin("paths", atoms...)), WithServers(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Output.NumTuples() != 3 {
		t.Errorf("paths in a 3-cycle: %d want 3", rep.Output.NumTuples())
	}
	if rep.Strategy != "hypercube-selfjoin" {
		t.Errorf("strategy=%q", rep.Strategy)
	}
}

func TestRunAutoRoundBudget(t *testing.T) {
	k := 8
	q := Chain(k)
	rng := rand.New(rand.NewSource(6))
	db := ChainMatchingDatabase(rng, k, 300, 1<<20)
	want := SequentialAnswer(q, db)

	one, err := Run(q, db, WithStrategy(Auto()), WithServers(16), WithRoundBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	if one.Rounds != 1 {
		t.Errorf("budget 1: rounds=%d", one.Rounds)
	}
	free, err := Run(q, db, WithStrategy(Auto()), WithServers(16))
	if err != nil {
		t.Fatal(err)
	}
	// With unlimited rounds the advisor trades rounds for load: more rounds,
	// never a worse prediction than the one-round pick.
	if free.Rounds <= 1 {
		t.Errorf("unlimited budget picked a %d-round plan for L8", free.Rounds)
	}
	if free.PredictedLoadBits > one.PredictedLoadBits {
		t.Errorf("unlimited budget predicted %v > budget-1 %v", free.PredictedLoadBits, one.PredictedLoadBits)
	}
	for _, rep := range []*Report{one, free} {
		if !EqualRelations(rep.Output, want) {
			t.Errorf("%s: output mismatch", rep.Strategy)
		}
		if !strings.HasPrefix(rep.Strategy, "auto → ") {
			t.Errorf("auto report should name the delegate, got %q", rep.Strategy)
		}
	}
}

func TestRunLoadCapAborts(t *testing.T) {
	q := Triangle()
	rng := rand.New(rand.NewSource(8))
	db := MatchingDatabase(rng, q, 500, 1<<20)
	rep, err := Run(q, db, WithLoadCap(1)) // 1 bit: everything exceeds it
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Aborted {
		t.Error("1-bit load cap not reported as exceeded")
	}
	ok, err := Run(q, db, WithLoadCap(1e12))
	if err != nil {
		t.Fatal(err)
	}
	if ok.Aborted {
		t.Error("huge load cap reported as exceeded")
	}
}

type panickyStrategy struct{}

func (panickyStrategy) Name() string                         { return "panicky" }
func (panickyStrategy) Execute(ExecContext) (*Report, error) { panic("boom") }

func TestRunErrorBoundaries(t *testing.T) {
	q := Triangle()
	rng := rand.New(rand.NewSource(9))
	db := MatchingDatabase(rng, q, 50, 1<<16)

	if _, err := Run(nil, db); !errors.Is(err, ErrNilQuery) {
		t.Errorf("nil query: %v", err)
	}
	if _, err := Run(q, nil); !errors.Is(err, ErrNilDatabase) {
		t.Errorf("nil database: %v", err)
	}
	if _, err := Run(q, db, WithServers(0)); err == nil {
		t.Error("0 servers accepted")
	}
	if _, err := Run(q, NewDatabase(16)); !errors.Is(err, ErrMissingRelation) {
		t.Errorf("empty database: %v", err)
	}
	bad := NewDatabase(16)
	bad.Add(NewRelation("S1", 3))
	bad.Add(NewRelation("S2", 2))
	bad.Add(NewRelation("S3", 2))
	if _, err := Run(q, bad); !errors.Is(err, ErrMissingRelation) {
		t.Errorf("arity mismatch: %v", err)
	}
	if _, err := Run(q, db, WithStrategy(HyperCubeShares(2, 2))); err == nil {
		t.Error("wrong share count accepted")
	}
	if _, err := Run(q, db, WithStrategy(SkewedStarSampled(10))); err == nil {
		t.Error("skewed-star-sampled accepted a triangle query")
	}
	if _, err := Run(q, db, WithStrategy(ChainPlan(0))); err == nil {
		t.Error("chain-plan accepted a triangle query")
	}
	notTri, err := ParseQuery("q(x,y,z) :- S1(x,y), S2(y,z), S3(y,x)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(notTri, db, WithStrategy(SkewedTriangle())); err == nil || !strings.Contains(err.Error(), "needs the triangle query") {
		t.Errorf("skewed-triangle on a query with three atoms and three variables that is not C3: %v", err)
	}
	star := Star(2)
	sdb := SkewedStarDatabase(rand.New(rand.NewSource(10)), 2, 50, 1<<16, nil)
	if _, err := Run(star, sdb, WithStrategy(SkewedStarSampled(0))); err == nil {
		t.Error("sample size 0 accepted")
	}
	if _, err := Run(q, db, WithStrategy(GreedyPlan(1.5))); err == nil {
		t.Error("space exponent 1.5 accepted")
	}

	_, err = Run(q, db, WithStrategy(panickyStrategy{}))
	var se *StrategyError
	if !errors.As(err, &se) || se.Strategy != "panicky" {
		t.Errorf("panic not converted to StrategyError: %v", err)
	}
}

// TestAutoMultiRoundContainsSkew: on a C3 whose x1 = 1 has degree 1 000 in
// S1 and S3 of 4 000 tuples, Auto picks a two-round ε = 0 plan. Each of its
// nodes runs the heavy/light planner, so the hitter the first round's views
// inherit is contained. With one HyperCube shuffle per node the same plan
// read 37 200 bits, above HyperCube's own 36 864.
func TestAutoMultiRoundContainsSkew(t *testing.T) {
	q := Triangle()
	db := SkewedTriangleDatabase(rand.New(rand.NewSource(7)), 4000, 64000, 1, 1000)
	rep, err := Run(q, db, WithStrategy(Auto()), WithServers(64), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	const hyperCubePerNodeBits, maxBits = 37_200, 5_248
	if rep.Rounds != 2 || !strings.Contains(rep.Strategy, "ε=0.00") {
		t.Errorf("auto picked %s in %d rounds, want the two-round ε = 0 plan", rep.Strategy, rep.Rounds)
	}
	if rep.MaxLoadBits > maxBits {
		t.Errorf("max load %v bits, want ≤ %d (HyperCube per node: %d)", rep.MaxLoadBits, maxBits, hyperCubePerNodeBits)
	}
	if !EqualRelations(rep.Output, SequentialAnswer(q, db)) {
		t.Error("output mismatch")
	}
}
