package mpcquery

import (
	"math/rand"
	"testing"
)

// TestWithLoadCapSetsAbortedAllStrategies is the regression test for the
// load-cap plumbing: every strategy family — not just the HyperCube
// adapters — must honor WithLoadCap and surface the cluster's abort flag in
// Report.Aborted. A 1-bit cap is below any round's load, so every capped
// run must abort; the same run without a cap must not.
func TestWithLoadCapSetsAbortedAllStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := 200
	n := int64(1 << 12)

	star := Star(2)
	starDB := SkewedStarDatabase(rng, 2, m, n, map[int64]int{7: m / 4})
	tri := Triangle()
	triDB := SkewedTriangleDatabase(rng, m, n, 7, m/4)
	chain := Chain(4)
	chainDB := ChainMatchingDatabase(rng, 4, m, n)

	cases := []struct {
		family string
		q      *Query
		db     *Database
		s      Strategy
	}{
		{"hypercube", star, starDB, HyperCube()},
		{"hypercube-oblivious", star, starDB, HyperCubeOblivious()},
		{"hypercube-shares", star, starDB, HyperCubeShares(4, 1, 1)},
		{"skewed-star", star, starDB, SkewedGeneric()},
		{"skewed-star-sampled", star, starDB, SkewedStarSampled(50)},
		{"skewed-triangle", tri, triDB, SkewedTriangle()},
		{"skewed-generic", chain, chainDB, SkewedGeneric()},
		{"chain-plan", chain, chainDB, ChainPlan(0)},
		{"greedy-plan", chain, chainDB, GreedyPlan(0)},
		{"greedy-plan-skew", chain, skewedChainDB(), GreedyPlan(0)},
		{"auto", chain, chainDB, Auto()},
	}
	for _, tc := range cases {
		t.Run(tc.family, func(t *testing.T) {
			capped, err := Run(tc.q, tc.db, WithStrategy(tc.s), WithServers(8),
				WithSeed(3), WithLoadCap(1))
			if err != nil {
				t.Fatalf("capped run: %v", err)
			}
			if !capped.Aborted {
				t.Errorf("%s: 1-bit load cap must set Report.Aborted", tc.family)
			}
			free, err := Run(tc.q, tc.db, WithStrategy(tc.s), WithServers(8), WithSeed(3))
			if err != nil {
				t.Fatalf("uncapped run: %v", err)
			}
			if free.Aborted {
				t.Errorf("%s: uncapped run must not abort", tc.family)
			}
			// The cap changes accounting, never the answer.
			if !EqualRelations(capped.Output, free.Output) {
				t.Errorf("%s: load cap changed the output", tc.family)
			}
		})
	}
}

// TestWithLoadCapSelfJoin covers the SelfJoin strategy family, which
// carries its own query.
func TestWithLoadCapSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	edges := NewRelation("E", 2)
	for i := 0; i < 300; i++ {
		edges.Append(rng.Int63n(500), rng.Int63n(500))
	}
	db := NewDatabase(500)
	db.Add(edges)
	atoms := []Atom{
		{Name: "E", Vars: []string{"x", "y"}},
		{Name: "E", Vars: []string{"y", "z"}},
	}
	capped, err := Run(nil, db, WithStrategy(SelfJoin("paths", atoms...)),
		WithServers(8), WithSeed(3), WithLoadCap(1))
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Aborted {
		t.Error("selfjoin: 1-bit load cap must set Report.Aborted")
	}
	free, err := Run(nil, db, WithStrategy(SelfJoin("paths", atoms...)),
		WithServers(8), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if free.Aborted {
		t.Error("selfjoin: uncapped run must not abort")
	}
}

// TestGenerousLoadCapDoesNotAbort: a cap far above the observed load leaves
// Aborted unset for every family (the flag reflects a genuine violation,
// not the mere presence of a cap).
func TestGenerousLoadCapDoesNotAbort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	star := Star(2)
	db := SkewedStarDatabase(rng, 2, 200, 1<<12, map[int64]int{7: 50})
	for _, s := range []Strategy{HyperCube(), SkewedStarSampled(50), SkewedGeneric()} {
		rep, err := Run(star, db, WithStrategy(s), WithServers(8), WithSeed(3),
			WithLoadCap(1e12))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if rep.Aborted {
			t.Errorf("%s: generous cap aborted (load %v)", s.Name(), rep.MaxLoadBits)
		}
	}
}
