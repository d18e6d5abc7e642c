package mpcquery

import (
	"fmt"
	"math/rand"
	"testing"

	"mpcquery/internal/data"
	"mpcquery/internal/oracle"
)

// The differential-oracle suite: every strategy family, on seeded random
// instances from every generator family, against the naive single-server
// oracle (internal/oracle — no code shared with the engine, kernel, or
// aggregation subsystem). Joins must be multiset-equal; aggregates must be
// value-identical, pushdown on and off.

// oracleGenerator builds one randomized database for a query.
type oracleGenerator struct {
	name  string
	build func(rng *rand.Rand, q *Query, m int, n int64) *Database
}

func oracleGenerators() []oracleGenerator {
	return []oracleGenerator{
		{"matching", func(rng *rand.Rand, q *Query, m int, n int64) *Database {
			return MatchingDatabase(rng, q, m, n)
		}},
		{"zipf", func(rng *rand.Rand, q *Query, m int, n int64) *Database {
			// Both columns Zipf-distributed over a small value set, so every
			// join column is skewed and shared values collide across atoms
			// (and duplicate tuples occur — bag semantics get exercised).
			db := NewDatabase(n)
			for _, a := range q.Atoms {
				z := rand.NewZipf(rng, 1.4, 1, 48)
				rel := NewRelation(a.Name, a.Arity())
				row := make([]int64, a.Arity())
				for i := 0; i < m; i++ {
					for c := range row {
						row[c] = int64(z.Uint64())
					}
					rel.AppendTuple(row)
				}
				db.Add(rel)
			}
			return db
		}},
		{"heavy-hitter", func(rng *rand.Rand, q *Query, m int, n int64) *Database {
			// One planted heavy value per column in a quarter of the tuples,
			// the rest uniform over a small domain: cross-atom hot spots with
			// guaranteed overlap.
			db := NewDatabase(n)
			for _, a := range q.Atoms {
				rel := NewRelation(a.Name, a.Arity())
				row := make([]int64, a.Arity())
				for i := 0; i < m; i++ {
					for c := range row {
						if i%4 == 0 {
							row[c] = 3
						} else {
							row[c] = rng.Int63n(64)
						}
					}
					rel.AppendTuple(row)
				}
				db.Add(rel)
			}
			return db
		}},
	}
}

// oracleWorkload couples a query with the strategy families that accept it.
type oracleWorkload struct {
	name       string
	q          *Query
	strategies []Strategy
	// aggStrategies are the families with an aggregate path for this query.
	aggStrategies []Strategy
}

func oracleWorkloads() []oracleWorkload {
	return []oracleWorkload{
		{
			name: "star2", q: Star(2),
			strategies: []Strategy{
				HyperCube(), HyperCubeOblivious(), HyperCubeShares(4, 2, 2),
				SkewedStar(), SkewedStarSampled(40), SkewedGeneric(),
				GreedyPlan(0.5), GreedyPlanSkewAware(0.5), Auto(),
			},
			aggStrategies: []Strategy{
				HyperCube(), HyperCubeOblivious(), HyperCubeShares(4, 2, 2),
				GreedyPlan(0.5), Auto(),
			},
		},
		{
			name: "star3", q: Star(3),
			strategies: []Strategy{
				HyperCube(), SkewedStar(), SkewedGeneric(), Auto(),
			},
			aggStrategies: []Strategy{HyperCube(), Auto()},
		},
		{
			name: "triangle", q: Triangle(),
			strategies: []Strategy{
				HyperCube(), HyperCubeOblivious(), SkewedTriangle(),
				SkewedGeneric(), GreedyPlan(0), Auto(),
			},
			aggStrategies: []Strategy{HyperCube(), HyperCubeOblivious(), GreedyPlan(0)},
		},
		{
			name: "chain4", q: Chain(4),
			strategies: []Strategy{
				HyperCube(), ChainPlan(0.5), GreedyPlan(0.5),
				GreedyPlanSkewAware(0.5), Auto(),
			},
			aggStrategies: []Strategy{HyperCube(), ChainPlan(0.5), GreedyPlan(0.5)},
		},
	}
}

func TestDifferentialOracleJoins(t *testing.T) {
	seeds := []int64{1, 5}
	if testing.Short() {
		seeds = seeds[:1]
	}
	const (
		m = 80
		n = int64(1 << 8)
		p = 16
	)
	for _, w := range oracleWorkloads() {
		for _, gen := range oracleGenerators() {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%s/seed%d", w.name, gen.name, seed), func(t *testing.T) {
					t.Parallel()
					rng := rand.New(rand.NewSource(seed * 7919))
					db := gen.build(rng, w.q, m, n)
					want := oracle.Evaluate(w.q, db)
					for _, s := range w.strategies {
						// On the everything-is-skewed zipf instances the
						// generic planner bins every heavy value by degree,
						// so its layout stays bounded without a cap.
						rep, err := Run(w.q, db, WithStrategy(s), WithServers(p), WithSeed(seed))
						if err != nil {
							t.Fatalf("%s: %v", s.Name(), err)
						}
						if !EqualRelations(rep.Output, want) {
							t.Errorf("%s: output (%d tuples) differs from oracle (%d tuples)",
								s.Name(), rep.Output.NumTuples(), want.NumTuples())
						}
					}
				})
			}
		}
	}
}

// oracleAggCases enumerates the aggregate specs checked per workload, using
// the query's first variable as group key and its last as aggregated value.
func oracleAggCases(q *Query) []AggregateQuery {
	vars := q.Vars()
	g, v := vars[0], vars[len(vars)-1]
	return []AggregateQuery{
		{Join: q, Op: AggCount, GroupBy: []string{g}},
		{Join: q, Op: AggCount}, // global count
		{Join: q, Op: AggSum, Of: v, GroupBy: []string{g}},
		{Join: q, Op: AggMin, Of: v, GroupBy: []string{g}},
		{Join: q, Op: AggMax, Of: v, GroupBy: []string{g, v}}, // multi-column key
	}
}

func opName(op AggregateOp) string { return op.String() }

func TestDifferentialOracleAggregates(t *testing.T) {
	const (
		m    = 80
		n    = int64(1 << 8)
		p    = 16
		seed = int64(3)
	)
	for _, w := range oracleWorkloads() {
		for _, gen := range oracleGenerators() {
			w, gen := w, gen
			t.Run(fmt.Sprintf("%s/%s", w.name, gen.name), func(t *testing.T) {
				t.Parallel()
				rng := rand.New(rand.NewSource(1234))
				db := gen.build(rng, w.q, m, n)
				for _, aq := range oracleAggCases(w.q) {
					want := oracle.Aggregate(w.q, db, opName(aq.Op), aq.Of, aq.GroupBy)
					for _, s := range w.aggStrategies {
						for _, pushdown := range []bool{true, false} {
							rep, err := RunAggregate(aq, db, WithStrategy(s), WithServers(p),
								WithSeed(seed), WithAggregatePushdown(pushdown))
							if err != nil {
								t.Fatalf("%s %v pushdown=%t: %v", s.Name(), aq.Op, pushdown, err)
							}
							if !relExactlyEqual(rep.Output, want) {
								t.Errorf("%s %v(%s) by %v pushdown=%t: %d groups, oracle %d; aggregate values differ",
									s.Name(), aq.Op, aq.Of, aq.GroupBy, pushdown,
									rep.Output.NumTuples(), want.NumTuples())
							}
							if !pushdown && rep.AggregateBitsSaved != 0 {
								t.Errorf("%s: no-pushdown run claims %f saved bits", s.Name(), rep.AggregateBitsSaved)
							}
						}
					}
				}
			})
		}
	}
}

// relExactlyEqual compares two plain relations tuple-for-tuple in order —
// aggregate outputs are canonical (sorted), so exact equality is the right
// bar, stronger than multiset equality.
func relExactlyEqual(a, b *data.Relation) bool {
	if a.Arity != b.Arity || a.NumTuples() != b.NumTuples() {
		return false
	}
	av, bv := a.Vals(), b.Vals()
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
	}
	return true
}

// TestDifferentialOracleSelfJoin covers the self-join family: the desugared
// query evaluated by the oracle over a view database with the repeated
// relation under its desugared names.
func TestDifferentialOracleSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := int64(1 << 8)
	edges := NewRelation("E", 2)
	for i := 0; i < 150; i++ {
		edges.Append(rng.Int63n(40), rng.Int63n(40))
	}
	db := NewDatabase(n)
	db.Add(edges)

	atoms := []Atom{
		{Name: "E", Vars: []string{"x", "y"}},
		{Name: "E", Vars: []string{"y", "z"}},
	}
	dq, orig := DesugarSelfJoins("paths", atoms)
	view := NewDatabase(n)
	for _, a := range dq.Atoms {
		r := edges.Clone()
		_ = orig // every desugared name maps to E here
		r.Name = a.Name
		view.Add(r)
	}
	want := oracle.Evaluate(dq, view)

	rep, err := Run(nil, db, WithStrategy(SelfJoin("paths", atoms...)), WithServers(16), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if !EqualRelations(rep.Output, want) {
		t.Errorf("self-join output (%d tuples) differs from oracle (%d tuples)",
			rep.Output.NumTuples(), want.NumTuples())
	}
}
