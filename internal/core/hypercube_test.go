package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/packing"
	"mpcquery/internal/query"
)

func TestIntegerShares(t *testing.T) {
	// Triangle at p=64: exponents (1/3,1/3,1/3) -> shares (4,4,4).
	got := packing.IntegerShares([]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, 64)
	if got[0] != 4 || got[1] != 4 || got[2] != 4 {
		t.Errorf("shares=%v want [4 4 4]", got)
	}
	// Star: everything on one dimension.
	got2 := packing.IntegerShares([]float64{1, 0, 0}, 16)
	if got2[0] != 16 || got2[1] != 1 || got2[2] != 1 {
		t.Errorf("shares=%v want [16 1 1]", got2)
	}
	// Product never exceeds p, even for awkward p.
	for _, p := range []int{7, 12, 100, 1000} {
		sh := packing.IntegerShares([]float64{0.5, 0.3, 0.2}, p)
		prod := 1
		for _, s := range sh {
			prod *= s
			if s < 1 {
				t.Errorf("p=%d: share < 1: %v", p, sh)
			}
		}
		if prod > p {
			t.Errorf("p=%d: product %d exceeds p (%v)", p, prod, sh)
		}
	}
}

func TestIntegerSharesUsesBudget(t *testing.T) {
	// For exact powers the full budget must be used.
	sh := packing.IntegerShares([]float64{0.5, 0.5}, 64)
	if sh[0]*sh[1] != 64 {
		t.Errorf("shares=%v should multiply to 64", sh)
	}
}

func runMatching(t *testing.T, q *query.Query, m int, p int, mode Mode) *engine.RunRecord {
	t.Helper()
	rng := rand.New(rand.NewSource(77))
	db := data.MatchingDatabase(rng, q, m, int64(m*m))
	res := Run(q, db, p, 4242, mode)
	want := SequentialAnswer(q, db)
	if !data.Equal(res.Output, want) {
		t.Fatalf("%s: parallel output (%d tuples) != sequential (%d tuples)",
			q.Name, res.Output.NumTuples(), want.NumTuples())
	}
	return res
}

func TestHyperCubeTriangleCorrect(t *testing.T) {
	runMatching(t, query.Triangle(), 600, 64, SkewFree)
}

func TestHyperCubeChainCorrect(t *testing.T) {
	runMatching(t, query.Chain(3), 500, 64, SkewFree)
}

func TestHyperCubeStarCorrect(t *testing.T) {
	runMatching(t, query.Star(3), 400, 32, SkewFree)
}

func TestHyperCubeObliviousCorrect(t *testing.T) {
	runMatching(t, query.Triangle(), 300, 27, SkewOblivious)
}

func TestHyperCubeNonTrivialOutput(t *testing.T) {
	// Composing chain data guarantees non-empty output; checks we aren't
	// vacuously comparing empty sets.
	rng := rand.New(rand.NewSource(5))
	db := data.ChainMatchingDatabase(rng, 3, 400, 1_000_000)
	q := query.Chain(3)
	res := Run(q, db, 64, 1, SkewFree)
	if res.Output.NumTuples() != 400 {
		t.Fatalf("chain output=%d want 400", res.Output.NumTuples())
	}
	if !data.Equal(res.Output, SequentialAnswer(q, db)) {
		t.Fatal("parallel != sequential")
	}
}

// TestHyperCubeRandomQueries is the main correctness property test: on
// random connected binary queries with random matching data, HC equals the
// sequential answer.
func TestHyperCubeRandomQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := randomConnectedQuery(r)
		m := 50 + r.Intn(200)
		db := data.MatchingDatabase(r, q, m, int64(4*m))
		p := []int{4, 8, 16, 27, 64}[r.Intn(5)]
		res := Run(q, db, p, seed, SkewFree)
		return data.Equal(res.Output, SequentialAnswer(q, db))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func randomConnectedQuery(r *rand.Rand) *query.Query {
	k := 2 + r.Intn(4)
	l := 1 + r.Intn(4)
	atoms := make([]query.Atom, 0, l)
	for j := 0; j < l; j++ {
		a := r.Intn(k)
		if j > 0 {
			a = r.Intn(min(k, j+1))
		}
		b := r.Intn(k)
		atoms = append(atoms, query.Atom{
			Name: "S" + string(rune('A'+j)),
			Vars: []string{vn(a), vn(b)},
		})
	}
	return query.New("rand", atoms...)
}

func vn(i int) string { return string(rune('a' + i)) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestTriangleLoadScaling checks the headline result: on matching data the
// measured HC load for C3 tracks M/p^{2/3} — doubling p three times (8×)
// should cut the load by ≈4×.
func TestTriangleLoadScaling(t *testing.T) {
	q := query.Triangle()
	rng := rand.New(rand.NewSource(13))
	m := 8000
	db := data.MatchingDatabase(rng, q, m, int64(m*4))
	load8 := Run(q, db, 8, 99, SkewFree).MaxLoadBits()
	load64 := Run(q, db, 64, 99, SkewFree).MaxLoadBits()
	ratio := load8 / load64
	// Ideal ratio 8^{2/3} = 4; allow generous variance for hashing noise.
	if ratio < 2.5 || ratio > 6.5 {
		t.Errorf("load ratio p=8 vs p=64: %v (want ≈4)", ratio)
	}
}

// TestLoadNearPrediction compares the measured load against the LP
// prediction L_upper = p^λ — they should agree within a small constant
// factor on skew-free data.
func TestLoadNearPrediction(t *testing.T) {
	q := query.Triangle()
	rng := rand.New(rand.NewSource(17))
	m := 8000
	db := data.MatchingDatabase(rng, q, m, int64(m*4))
	pl := PlanForDatabase(q, db, 64, SkewFree)
	res := RunPlan(pl, db, 3)
	pred := pl.PredictedLoadBits()
	if res.MaxLoadBits() > 4*pred {
		t.Errorf("measured %v >> predicted %v", res.MaxLoadBits(), pred)
	}
	if res.MaxLoadBits() < pred/4 {
		t.Errorf("measured %v << predicted %v (accounting bug?)", res.MaxLoadBits(), pred)
	}
}

// TestSmallRelationBroadcast reproduces Lemma 3.18: with M1 much smaller
// than M2=M3 and small p, the plan gives S1's variables share 1 on its
// private dimension... in the triangle all variables are shared; instead we
// check the speedup: the load matches M/p (linear) rather than the
// symmetric-packing bound.
func TestSmallRelationBroadcast(t *testing.T) {
	q := query.Triangle()
	rng := rand.New(rand.NewSource(19))
	n := int64(1 << 20)
	db := data.NewDatabase(n)
	db.Add(data.RandomMatching(rng, "S1", 2, 100, n))
	db.Add(data.RandomMatching(rng, "S2", 2, 6400, n))
	db.Add(data.RandomMatching(rng, "S3", 2, 6400, n))
	p := 16 // p < M/M1 = 64: unit-vector packing wins, linear speedup
	pl := PlanForDatabase(q, db, p, SkewFree)
	stats := StatsBits(q, db)
	lower, u := packing.LLower(q, stats, float64(p))
	su := 0.0
	for _, w := range u {
		su += w
	}
	if math.Abs(su-1) > 1e-6 {
		t.Fatalf("expected unit-vector packing at p=%d, got %v", p, u)
	}
	res := RunPlan(pl, db, 7)
	if res.MaxLoadBits() > 4*lower {
		t.Errorf("load %v should track linear-speedup bound %v", res.MaxLoadBits(), lower)
	}
	if !data.Equal(res.Output, SequentialAnswer(q, db)) {
		t.Fatal("output mismatch")
	}
}

func TestReplicationRateMeasured(t *testing.T) {
	// For C3 with symmetric shares p^{1/3}, each tuple is replicated p^{1/3}
	// times, so the replication rate ≈ p^{1/3} = 4 at p=64.
	q := query.Triangle()
	rng := rand.New(rand.NewSource(23))
	db := data.MatchingDatabase(rng, q, 3000, 1<<20)
	res := Run(q, db, 64, 5, SkewFree)
	if res.ReplicationRate() < 3 || res.ReplicationRate() > 5 {
		t.Errorf("replication rate=%v want ≈4", res.ReplicationRate())
	}
}

func TestRunWithShares(t *testing.T) {
	q := query.SimpleJoin() // S1(x,z), S2(y,z)
	rng := rand.New(rand.NewSource(29))
	db := data.MatchingDatabase(rng, q, 500, 1<<20)
	// Standard parallel hash join: all shares on z.
	zi := q.VarIndex("z")
	shares := []int{1, 1, 1}
	shares[zi] = 16
	res := RunPlan(PlanWithShares(q, db, shares), db, 11)
	if !data.Equal(res.Output, SequentialAnswer(q, db)) {
		t.Fatal("hash-join shares: wrong output")
	}
	if res.ServersUsed != 16 {
		t.Errorf("servers=%d want 16", res.ServersUsed)
	}
}

func TestPlanString(t *testing.T) {
	q := query.Triangle()
	pl := NewPlan(q, []float64{1 << 20, 1 << 20, 1 << 20}, 64, SkewFree)
	s := pl.String()
	if s == "" || pl.GridP() > 64 {
		t.Errorf("plan: %s (grid %d)", s, pl.GridP())
	}
}

// TestSkewObliviousTightness checks the Section 4.1 tightness claim: on an
// instance where one column of a relation holds a single value, the HC load
// is Ω(M_j / min_{i∈S_j} p_i) — hashing degenerates to one dimension.
func TestSkewObliviousTightness(t *testing.T) {
	q := query.SimpleJoin() // S1(x,z), S2(y,z)
	n := int64(1 << 20)
	m := 2000
	db := data.NewDatabase(n)
	rng := rand.New(rand.NewSource(41))
	// S1: single z value -> hashing on z is useless for S1.
	s1 := data.NewRelation("S1", 2)
	xs := data.SampleDistinct(rng, m, n)
	for i := 0; i < m; i++ {
		s1.Append(xs[i], 7)
	}
	db.Add(s1)
	db.Add(data.RandomMatching(rng, "S2", 2, m, n))
	// Force the naive shares (1,1,p) on (x,y,z): S1's min share over its
	// variables is 1 only for x... z has share p but all of S1 lands on one
	// coordinate: load >= M1.
	zi := q.VarIndex("z")
	shares := []int{1, 1, 1}
	shares[zi] = 16
	res := RunPlan(PlanWithShares(q, db, shares), db, 3)
	m1 := db.Get("S1").SizeBits(n)
	if res.MaxLoadBits() < m1 {
		t.Errorf("degenerate hashing should load >= M1=%v, got %v", m1, res.MaxLoadBits())
	}
	// The skew-oblivious LP picks cube shares instead, load ~ M/p^{1/3}.
	obl := Run(q, db, 16, 3, SkewOblivious)
	if obl.MaxLoadBits() >= res.MaxLoadBits() {
		t.Errorf("oblivious shares %v should beat naive %v on this instance",
			obl.MaxLoadBits(), res.MaxLoadBits())
	}
	if !data.Equal(obl.Output, SequentialAnswer(q, db)) {
		t.Error("oblivious output mismatch")
	}
}
