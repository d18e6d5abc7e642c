package core

import (
	"math/rand"
	"testing"

	"mpcquery/internal/data"
	"mpcquery/internal/query"
)

// denseTriangleDB builds random (non-matching) relations over a small
// domain so the triangle query has a sizable output.
func denseTriangleDB(rng *rand.Rand, m int, n int64) *data.Database {
	db := data.NewDatabase(n)
	for _, a := range query.Triangle().Atoms {
		rel := data.NewRelation(a.Name, 2)
		for i := 0; i < m; i++ {
			rel.Append(rng.Int63n(n), rng.Int63n(n))
		}
		db.Add(rel)
	}
	return db
}

func TestCappedUnlimitedEqualsFull(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := query.Triangle()
	db := denseTriangleDB(rng, 1500, 128)
	pl := PlanForDatabase(q, db, 27, SkewFree)
	res := RunPlanCapped(pl, db, 5, 1e18)
	if res.Fraction != 1 {
		t.Fatalf("unlimited cap should find everything: fraction=%v", res.Fraction)
	}
	if res.DroppedBits != 0 {
		t.Errorf("dropped %v bits with unlimited cap", res.DroppedBits)
	}
	if res.AnswerCount != res.FullCount {
		t.Errorf("answers %d vs %d", res.AnswerCount, res.FullCount)
	}
}

// TestCappedFractionDecreasesWithP is the Theorem 3.5 experiment in
// miniature: capping the load at c·M/p (space exponent 0 < 1/3 = the
// triangle's requirement) must lose answers, and lose more at larger p.
func TestCappedFractionDecreasesWithP(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := query.Triangle()
	db := denseTriangleDB(rng, 4000, 256)
	M := db.Get("S1").SizeBits(db.N)

	fractions := map[int]float64{}
	for _, p := range []int{8, 64, 512} {
		pl := PlanForDatabase(q, db, p, SkewFree)
		res := RunPlanCapped(pl, db, 3, 3*M/float64(p))
		fractions[p] = res.Fraction
	}
	if fractions[8] <= fractions[512] {
		t.Errorf("fraction should shrink with p at fixed space exponent: %v", fractions)
	}
	if fractions[512] > 0.9 {
		t.Errorf("p=512 fraction=%v should be far from 1", fractions[512])
	}
}

// TestCappedAtLowerBoundFindsMost: capping at a constant multiple of
// L_lower = M/p^{2/3} must retain (nearly) all answers — the upper bound
// side of the tight pair.
func TestCappedAtLowerBoundFindsMost(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := query.Triangle()
	db := denseTriangleDB(rng, 3000, 256)
	pl := PlanForDatabase(q, db, 64, SkewFree)
	full := RunPlan(pl, db, 3)
	res := RunPlanCapped(pl, db, 3, 2*full.MaxLoadBits())
	if res.Fraction < 0.999 {
		t.Errorf("cap at 2×actual load should lose nothing: fraction=%v", res.Fraction)
	}
}

func TestInputServerModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := query.Triangle()
	db := data.MatchingDatabase(rng, q, 2000, 1<<20)
	pl := PlanForDatabase(q, db, 64, SkewFree)
	a := RunPlan(pl, db, 9)
	b := RunPlanInputServers(pl, db, 9)
	if a.MaxLoadBits() != b.MaxLoadBits() {
		t.Errorf("loads differ: partitioned %v vs input-server %v", a.MaxLoadBits(), b.MaxLoadBits())
	}
	if !data.Equal(a.Output, b.Output) {
		t.Error("outputs differ between input models")
	}
}
