package mpcquery

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"mpcquery/internal/core"
	"mpcquery/internal/oracle"
)

// highDuplicateStarDB builds the workload pushdown shines on: a simple join
// T2 = S1(z,x1), S2(z,x2) where a handful of hot z values carry most tuples,
// so the join output has huge per-group multiplicity.
func highDuplicateStarDB(m int) *Database {
	rng := rand.New(rand.NewSource(21))
	heavy := map[int64]int{7: m / 2, 11: m / 4}
	return SkewedStarDatabase(rng, 2, m, int64(1<<16), heavy)
}

func aggFamilies() []Strategy {
	return []Strategy{
		HyperCube(), HyperCubeOblivious(), HyperCubeShares(4, 2, 2),
		SkewedStarSampled(50), SkewedGeneric(),
		GreedyPlan(0.5), Auto(),
	}
}

// TestAggregatePushdownValueIdentical pins the acceptance bar: pushdown and
// no-pushdown produce bit-identical final aggregate values for every
// supporting family, while pushdown strictly reduces TotalBits on
// high-duplicate data and meters the difference in AggregateBitsSaved. The
// second instance puts a number on "reduces": two hot z values carry most of
// both relations, the join has ~(m/2)² rows for a handful of groups, and
// combining before the shuffle must at least halve the bits (it collapses
// the aggregate round; the measured ratio is in the hundreds).
func TestAggregatePushdownValueIdentical(t *testing.T) {
	cases := []struct {
		m, p       int
		strategies []Strategy
		minRatio   float64 // required off.TotalBits / on.TotalBits
	}{
		{400, 16, aggFamilies(), 1},
		{2000, 64, []Strategy{HyperCube()}, 2},
	}
	count := WithAggregate(AggCount, "", "z")
	for _, tc := range cases {
		db := highDuplicateStarDB(tc.m)
		for _, s := range tc.strategies {
			on, err := Run(Star(2), db, count, WithStrategy(s), WithServers(tc.p), WithSeed(3))
			if err != nil {
				t.Fatalf("%s pushdown: %v", s.Name(), err)
			}
			off, err := Run(Star(2), db, count, WithStrategy(s), WithServers(tc.p), WithSeed(3),
				WithAggregatePushdown(false))
			if err != nil {
				t.Fatalf("%s no-pushdown: %v", s.Name(), err)
			}
			if !EqualRelations(on.Output, off.Output) {
				t.Errorf("%s: pushdown changed the aggregate values", s.Name())
			}
			if on.TotalBits >= off.TotalBits {
				t.Errorf("%s: pushdown did not reduce TotalBits (%f >= %f)", s.Name(), on.TotalBits, off.TotalBits)
			}
			if ratio := off.TotalBits / on.TotalBits; ratio < tc.minRatio {
				t.Errorf("%s m=%d p=%d: pushdown cut TotalBits %.1fx, want at least %.0fx", s.Name(), tc.m, tc.p, ratio, tc.minRatio)
			}
			if on.AggregateBitsSaved <= 0 {
				t.Errorf("%s: AggregateBitsSaved = %f, want > 0", s.Name(), on.AggregateBitsSaved)
			}
			if got := off.TotalBits - on.TotalBits; got != on.AggregateBitsSaved {
				t.Errorf("%s: saved bits %f do not equal the TotalBits delta %f",
					s.Name(), on.AggregateBitsSaved, got)
			}
			if off.AggregateBitsSaved != 0 {
				t.Errorf("%s: no-pushdown run claims savings", s.Name())
			}
			if on.Aggregate == "" || off.Aggregate == "" {
				t.Errorf("%s: Report.Aggregate not set", s.Name())
			}
			if on.Rounds != off.Rounds {
				t.Errorf("%s: pushdown changed the round count (%d vs %d)", s.Name(), on.Rounds, off.Rounds)
			}
		}
	}
}

// TestAggregateRoundAccounting checks the aggregate shuffle is a metered
// round: one extra round over the plain join, present in RoundStats, with
// the report internally consistent.
func TestAggregateRoundAccounting(t *testing.T) {
	q := Star(2)
	db := highDuplicateStarDB(200)
	plain, err := Run(q, db, WithServers(16), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := Run(q, db, WithServers(16), WithSeed(3), WithAggregate(AggCount, "", "z"))
	if err != nil {
		t.Fatal(err)
	}
	if agg.Rounds != plain.Rounds+1 {
		t.Fatalf("aggregate run used %d rounds, want %d", agg.Rounds, plain.Rounds+1)
	}
	if len(agg.RoundStats) != agg.Rounds {
		t.Fatalf("RoundStats has %d entries for %d rounds", len(agg.RoundStats), agg.Rounds)
	}
	if agg.RoundStats[0].MaxLoadBits != plain.MaxLoadBits {
		t.Fatal("the input shuffle round must be unchanged by aggregation")
	}
	if agg.TotalBits <= plain.TotalBits {
		t.Fatal("the aggregate shuffle must charge bits")
	}
}

func TestAggregateGlobalAndOps(t *testing.T) {
	q := Star(2)
	db := highDuplicateStarDB(120)
	join, err := Run(q, db, WithServers(8), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	// Global count = join size.
	rep, err := Run(q, db, WithAggregate(AggCount, ""), WithServers(8), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Output.Arity != 1 || rep.Output.NumTuples() != 1 {
		t.Fatalf("global count output shape: arity %d, %d tuples", rep.Output.Arity, rep.Output.NumTuples())
	}
	if got, want := rep.Output.At(0, 0), int64(join.Output.NumTuples()); got != want {
		t.Fatalf("global count = %d, join has %d tuples", got, want)
	}
	// Min ≤ Max per group, same groups as count.
	mn, err := Run(q, db, WithAggregate(AggMin, "x1", "z"), WithServers(8), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	mx, err := Run(q, db, WithAggregate(AggMax, "x1", "z"), WithServers(8), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if mn.Output.NumTuples() != mx.Output.NumTuples() {
		t.Fatal("min and max must have the same groups")
	}
	for i := 0; i < mn.Output.NumTuples(); i++ {
		if mn.Output.At(i, 0) != mx.Output.At(i, 0) {
			t.Fatal("group keys diverged between min and max")
		}
		if mn.Output.At(i, 1) > mx.Output.At(i, 1) {
			t.Fatal("min exceeds max within a group")
		}
	}
}

func TestAggregateValidation(t *testing.T) {
	q := Star(2)
	db := highDuplicateStarDB(50)
	cases := []struct {
		name string
		opts []RunOption
	}{
		{"unknown var in group-by", []RunOption{WithAggregate(AggCount, "", "nope")}},
		{"unknown aggregated var", []RunOption{WithAggregate(AggSum, "nope")}},
		{"sum without var", []RunOption{WithAggregate(AggSum, "")}},
		{"count with var", []RunOption{WithAggregate(AggCount, "x1")}},
		{"duplicate group-by", []RunOption{WithAggregate(AggCount, "", "z", "z")}},
		{"bad op", []RunOption{WithAggregate(AggregateOp(99), "")}},
	}
	for _, c := range cases {
		if _, err := Run(q, db, c.opts...); !errors.Is(err, ErrInvalidAggregate) {
			t.Errorf("%s: err = %v, want ErrInvalidAggregate", c.name, err)
		}
	}
}

// TestAggregateUnsupportedStrategies: every built-in strategy has an
// aggregate path, SelfJoin's over its renamed view included; only an external
// Strategy implementation is refused.
func TestAggregateUnsupportedStrategies(t *testing.T) {
	// SelfJoin carries its own query: a COUNT of length-2 paths per middle
	// node, over the renamed view.
	rng := rand.New(rand.NewSource(99))
	edges := NewRelation("E", 2)
	for i := 0; i < 150; i++ {
		edges.Append(rng.Int63n(40), rng.Int63n(40))
	}
	paths := NewDatabase(1 << 8)
	paths.Add(edges)
	atoms := []Atom{{Name: "E", Vars: []string{"x", "y"}}, {Name: "E", Vars: []string{"y", "z"}}}
	rep, err := Run(nil, paths, WithStrategy(SelfJoin("paths", atoms...)), WithServers(16), WithAggregate(AggCount, "", "y"))
	if err != nil {
		t.Fatalf("selfjoin: %v", err)
	}
	q, view := core.SelfJoinView("paths", atoms, paths)
	if want := oracle.Aggregate(q, view, "count", "", []string{"y"}); want.NumTuples() == 0 || !relExactlyEqual(rep.Output, want) {
		t.Errorf("selfjoin: %d groups, oracle %d; aggregate values differ", rep.Output.NumTuples(), want.NumTuples())
	}
	// An external Strategy implementation must be refused before it executes
	// — otherwise its plain join output would be mislabeled as aggregate
	// rows.
	if _, err := Run(Star(2), highDuplicateStarDB(50), WithStrategy(plainJoinStrategy{}), WithAggregate(AggCount, "", "z")); !errors.Is(err, ErrAggregateUnsupported) {
		t.Errorf("external strategy: err = %v, want ErrAggregateUnsupported", err)
	}
}

// plainJoinStrategy is a minimal external Strategy implementation that
// ignores ExecContext.Aggregate entirely; it must never be handed one.
type plainJoinStrategy struct{}

func (plainJoinStrategy) Name() string { return "external-plain" }
func (plainJoinStrategy) Execute(ctx ExecContext) (*Report, error) {
	return HyperCube().Execute(ExecContext{Query: ctx.Query, DB: ctx.DB, Servers: ctx.Servers, Seed: ctx.Seed})
}

// TestAggregateServiceCachingBitIdentical extends the service's caching
// contract to aggregates: cached and uncached aggregate runs fingerprint
// identically, and plan-cache hits occur (planning is aggregate-independent,
// so a plain run warms the cache for aggregate runs of the same shape).
func TestAggregateServiceCachingBitIdentical(t *testing.T) {
	q := Star(2)
	db := highDuplicateStarDB(150)
	sum := WithAggregate(AggSum, "x2", "z")

	plain, err := Run(q, db, sum, WithServers(16), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(WithServiceWorkers(2))
	defer svc.Close()
	// Warm the plan cache with a plain join of the same shape.
	if _, err := svc.Run(context.Background(), q, db, WithServers(16), WithSeed(5)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rep, err := svc.Run(context.Background(), q, db, sum, WithServers(16), WithSeed(5))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Fingerprint() != plain.Fingerprint() {
			t.Fatalf("cached aggregate run %d diverged from the plain path", i)
		}
	}
	if hits := svc.Stats().Cache.Hits; hits == 0 {
		t.Fatal("aggregate runs must hit the shape-keyed plan cache")
	}
}
