package mpcquery_test

import (
	"fmt"
	"math/rand"

	"mpcquery"
)

// The default strategy is the one-round HyperCube algorithm with LP-optimal
// skew-free shares (Theorem 3.4).
func ExampleRun() {
	q := mpcquery.Triangle()
	rng := rand.New(rand.NewSource(1))
	db := mpcquery.MatchingDatabase(rng, q, 2000, 1<<20)

	rep, err := mpcquery.Run(q, db, mpcquery.WithServers(64), mpcquery.WithSeed(42))
	if err != nil {
		panic(err)
	}
	fmt.Println("strategy:", rep.Strategy)
	fmt.Println("rounds:", rep.Rounds)
	fmt.Println("matches sequential:", mpcquery.EqualRelations(rep.Output, mpcquery.SequentialAnswer(q, db)))
	// Output:
	// strategy: hypercube
	// rounds: 1
	// matches sequential: true
}

// The skew-oblivious shares of LP (18) guarantee the worst-case load over
// every data distribution (Section 4.1).
func ExampleRun_hyperCubeOblivious() {
	q := mpcquery.Star(2)
	rng := rand.New(rand.NewSource(2))
	db := mpcquery.SkewedStarDatabase(rng, 2, 500, 1<<20, map[int64]int{7: 250})

	rep, err := mpcquery.Run(q, db,
		mpcquery.WithStrategy(mpcquery.HyperCubeOblivious()),
		mpcquery.WithServers(16))
	if err != nil {
		panic(err)
	}
	fmt.Println("strategy:", rep.Strategy)
	fmt.Println("matches sequential:", mpcquery.EqualRelations(rep.Output, mpcquery.SequentialAnswer(q, db)))
	// Output:
	// strategy: hypercube-oblivious
	// matches sequential: true
}

// Explicit shares reproduce the naive parallel hash join of Example 4.1:
// all shares on the join variable.
func ExampleRun_hyperCubeShares() {
	q := mpcquery.Star(2) // S1(z,x1), S2(z,x2)
	rng := rand.New(rand.NewSource(3))
	db := mpcquery.MatchingDatabase(rng, q, 500, 1<<20)

	shares := []int{1, 1, 1}
	shares[q.VarIndex("z")] = 16
	rep, err := mpcquery.Run(q, db, mpcquery.WithStrategy(mpcquery.HyperCubeShares(shares...)))
	if err != nil {
		panic(err)
	}
	fmt.Println("strategy:", rep.Strategy)
	fmt.Println("shares:", rep.Shares)
	// Output:
	// strategy: hypercube-shares
	// shares: [16 1 1]
}

// On the Section 4.2.1 star, the skew-aware strategy gives each heavy hitter
// its own server group; here half of both relations share one z-value.
func ExampleRun_skewedStar() {
	q := mpcquery.Star(2)
	rng := rand.New(rand.NewSource(4))
	db := mpcquery.SkewedStarDatabase(rng, 2, 600, 1<<20, map[int64]int{9: 300})

	rep, err := mpcquery.Run(q, db,
		mpcquery.WithStrategy(mpcquery.SkewedGeneric()),
		mpcquery.WithServers(16))
	if err != nil {
		panic(err)
	}
	fmt.Println("strategy:", rep.Strategy)
	fmt.Println("heavy hitters:", rep.HeavyHitters)
	fmt.Println("matches sequential:", mpcquery.EqualRelations(rep.Output, mpcquery.SequentialAnswer(q, db)))
	// Output:
	// strategy: skewed-generic
	// heavy hitters: 1
	// matches sequential: true
}

// SkewedStarSampled gathers the frequency statistics with a one-round
// sampling protocol instead of an oracle, so the run takes two rounds.
func ExampleRun_skewedStarSampled() {
	q := mpcquery.Star(2)
	rng := rand.New(rand.NewSource(5))
	db := mpcquery.SkewedStarDatabase(rng, 2, 600, 1<<20, map[int64]int{9: 300})

	rep, err := mpcquery.Run(q, db,
		mpcquery.WithStrategy(mpcquery.SkewedStarSampled(150)),
		mpcquery.WithServers(16))
	if err != nil {
		panic(err)
	}
	fmt.Println("strategy:", rep.Strategy)
	fmt.Println("rounds:", rep.Rounds)
	// Output:
	// strategy: skewed-star-sampled
	// rounds: 2
}

// The Section 4.2.2 strategy — the generic heavy/light pattern planner,
// checked for C3 — handles a triangle input with one planted heavy x1-value.
func ExampleRun_skewedTriangle() {
	rng := rand.New(rand.NewSource(6))
	db := mpcquery.SkewedTriangleDatabase(rng, 600, 1<<20, 5, 200)
	q := mpcquery.Triangle()

	rep, err := mpcquery.Run(q, db,
		mpcquery.WithStrategy(mpcquery.SkewedTriangle()),
		mpcquery.WithServers(27))
	if err != nil {
		panic(err)
	}
	fmt.Println("strategy:", rep.Strategy)
	fmt.Println("matches sequential:", mpcquery.EqualRelations(rep.Output, mpcquery.SequentialAnswer(q, db)))
	// Output:
	// strategy: skewed-triangle
	// matches sequential: true
}

// The generalized heavy/light pattern strategy covers queries outside the
// star/triangle special cases.
func ExampleRun_skewedGeneric() {
	q := mpcquery.Chain(3)
	rng := rand.New(rand.NewSource(7))
	db := mpcquery.MatchingDatabase(rng, q, 500, 1<<20)

	rep, err := mpcquery.Run(q, db,
		mpcquery.WithStrategy(mpcquery.SkewedGeneric()),
		mpcquery.WithServers(16))
	if err != nil {
		panic(err)
	}
	fmt.Println("strategy:", rep.Strategy)
	fmt.Println("matches sequential:", mpcquery.EqualRelations(rep.Output, mpcquery.SequentialAnswer(q, db)))
	// Output:
	// strategy: skewed-generic
	// matches sequential: true
}

// A chain query runs in ⌈log_kε k⌉ rounds through the Example 5.2 plan;
// at ε=0 the plan for L8 is the 3-round binary-join tree.
func ExampleRun_chainPlan() {
	k := 8
	q := mpcquery.Chain(k)
	rng := rand.New(rand.NewSource(8))
	db := mpcquery.ChainMatchingDatabase(rng, k, 500, 1<<20)

	rep, err := mpcquery.Run(q, db,
		mpcquery.WithStrategy(mpcquery.ChainPlan(0)),
		mpcquery.WithServers(32))
	if err != nil {
		panic(err)
	}
	fmt.Println("rounds:", rep.Rounds)
	fmt.Println("per-round stats:", len(rep.RoundStats))
	fmt.Println("output tuples:", rep.Output.NumTuples())
	// Output:
	// rounds: 3
	// per-round stats: 3
	// output tuples: 500
}

// GreedyPlan handles any connected query at a chosen space exponent.
func ExampleRun_greedyPlan() {
	q := mpcquery.Cycle(6)
	rng := rand.New(rand.NewSource(9))
	db := mpcquery.MatchingDatabase(rng, q, 400, 1<<20)

	rep, err := mpcquery.Run(q, db,
		mpcquery.WithStrategy(mpcquery.GreedyPlan(0)),
		mpcquery.WithServers(16))
	if err != nil {
		panic(err)
	}
	fmt.Println("matches sequential:", mpcquery.EqualRelations(rep.Output, mpcquery.SequentialAnswer(q, db)))
	// Output:
	// matches sequential: true
}

// Self-joins (footnote 2): repeated relation names are renamed apart and
// the strategy carries its own query, so Run takes a nil *Query.
func ExampleRun_selfJoin() {
	e := mpcquery.NewRelation("E", 2)
	e.Append(1, 2)
	e.Append(2, 3)
	e.Append(3, 1)
	db := mpcquery.NewDatabase(16)
	db.Add(e)

	rep, err := mpcquery.Run(nil, db, mpcquery.WithStrategy(mpcquery.SelfJoin("paths",
		mpcquery.Atom{Name: "E", Vars: []string{"x", "y"}},
		mpcquery.Atom{Name: "E", Vars: []string{"y", "z"}},
	)), mpcquery.WithServers(4))
	if err != nil {
		panic(err)
	}
	fmt.Println("length-2 paths in a 3-cycle:", rep.Output.NumTuples())
	// Output:
	// length-2 paths in a 3-cycle: 3
}

// Auto asks the advisor for the Table 3 tradeoff and runs the best option
// within the round budget; the report names the delegate it picked.
func ExampleRun_auto() {
	k := 8
	q := mpcquery.Chain(k)
	rng := rand.New(rand.NewSource(10))
	db := mpcquery.ChainMatchingDatabase(rng, k, 400, 1<<20)

	budget1, err := mpcquery.Run(q, db,
		mpcquery.WithStrategy(mpcquery.Auto()),
		mpcquery.WithServers(16),
		mpcquery.WithRoundBudget(1))
	if err != nil {
		panic(err)
	}
	unlimited, err := mpcquery.Run(q, db,
		mpcquery.WithStrategy(mpcquery.Auto()),
		mpcquery.WithServers(16))
	if err != nil {
		panic(err)
	}
	fmt.Println("budget 1 rounds:", budget1.Rounds)
	fmt.Println("unlimited rounds:", unlimited.Rounds)
	fmt.Println("unlimited load < budget-1 load:", unlimited.MaxLoadBits < budget1.MaxLoadBits)
	// Output:
	// budget 1 rounds: 1
	// unlimited rounds: 3
	// unlimited load < budget-1 load: true
}

// Run never panics: errors cross the boundary as values.
func ExampleRun_errors() {
	q := mpcquery.Triangle()
	_, err := mpcquery.Run(q, mpcquery.NewDatabase(16)) // no relations loaded
	fmt.Println(err != nil)
	// Output:
	// true
}
