package skew

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/query"
)

func TestStarNoSkewMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := query.Star(3)
	db := data.MatchingDatabase(rng, q, 400, 1<<20)
	res := runGeneric(q, db, 16, 99)
	want := core.SequentialAnswer(q, db)
	if !data.Equal(res.Output, want) {
		t.Fatalf("no-skew star: got %d want %d tuples", res.Output.NumTuples(), want.NumTuples())
	}
	if res.HeavyHitters != 0 {
		t.Errorf("matching data should have no heavy hitters, got %d", res.HeavyHitters)
	}
	if len(res.Rounds) != 1 {
		t.Errorf("star algorithm must be one-round, used %d", len(res.Rounds))
	}
}

func TestSimpleJoinFullSkewCorrect(t *testing.T) {
	// Example 4.1 worst case: every tuple shares one z value.
	rng := rand.New(rand.NewSource(2))
	q := query.Star(2)
	m := 500
	db := data.SkewedStarDatabase(rng, 2, m, 1<<20, map[int64]int{7: m})
	res := runGeneric(q, db, 16, 5)
	want := core.SequentialAnswer(q, db)
	if want.NumTuples() != m*m {
		t.Fatalf("worst case should produce m² = %d outputs, got %d", m*m, want.NumTuples())
	}
	if !data.Equal(res.Output, want) {
		t.Fatalf("skewed join: got %d want %d", res.Output.NumTuples(), want.NumTuples())
	}
	if res.HeavyHitters != 1 {
		t.Errorf("heavy hitters=%d want 1", res.HeavyHitters)
	}
}

func TestSimpleJoinSkewSeparation(t *testing.T) {
	// The skew-aware algorithm must beat the naive hash join by roughly
	// sqrt(p) on fully-skewed input: naive load Θ(M), skew-aware Θ(M/sqrt(p)).
	rng := rand.New(rand.NewSource(3))
	q := query.Star(2)
	m := 800 // fully skewed: output is m², keep it small
	p := 16
	db := data.SkewedStarDatabase(rng, 2, m, 1<<20, map[int64]int{7: m})

	// Naive parallel hash join: all shares on z.
	zi := q.VarIndex("z")
	shares := []int{1, 1, 1}
	shares[zi] = p
	naive := core.RunPlan(core.PlanWithShares(q, db, shares), db, 5)

	aware := runGeneric(q, db, p, 5)
	if !data.Equal(naive.Output, aware.Output) {
		t.Fatal("outputs differ")
	}
	// Naive: one server receives everything (2m tuples).
	sep := naive.MaxLoadBits() / aware.MaxLoadBits()
	if sep < 2 {
		t.Errorf("separation=%.2f: naive %v vs aware %v (want ≥ 2 at p=16)",
			sep, naive.MaxLoadBits(), aware.MaxLoadBits())
	}
}

func TestStarMixedSkewCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := query.Star(3)
	m := 300
	heavy := map[int64]int{3: 60, 11: 40} // output grows as Σ count³

	db := data.SkewedStarDatabase(rng, 3, m, 1<<20, heavy)
	res := runGeneric(q, db, 27, 17)
	want := core.SequentialAnswer(q, db)
	if !data.Equal(res.Output, want) {
		t.Fatalf("mixed star: got %d want %d", res.Output.NumTuples(), want.NumTuples())
	}
	if res.HeavyHitters != 2 {
		t.Errorf("heavy=%d want 2", res.HeavyHitters)
	}
}

func TestStarNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := query.Star(2)
	db := data.SkewedStarDatabase(rng, 2, 300, 1<<20, map[int64]int{9: 100})
	res := runGeneric(q, db, 8, 23)
	if res.Output.NumTuples() != res.Output.Canonical().NumTuples() {
		t.Errorf("output has duplicates: %d vs %d distinct",
			res.Output.NumTuples(), res.Output.Canonical().NumTuples())
	}
}

func TestStarRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(2)
		m := 100 + r.Intn(200)
		heavy := map[int64]int{}
		for i := 0; i < r.Intn(3); i++ {
			heavy[int64(i)] = 10 + r.Intn(m/3)
		}
		q := query.Star(k)
		db := data.SkewedStarDatabase(r, k, m, 1<<20, heavy)
		p := []int{4, 8, 16, 27}[r.Intn(4)]
		res := runGeneric(q, db, p, seed)
		return data.Equal(res.Output, core.SequentialAnswer(q, db))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestTriangleNoSkewMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := query.Triangle()
	db := data.MatchingDatabase(rng, q, 500, 1<<20)
	res := runGeneric(q, db, 27, 3)
	want := core.SequentialAnswer(q, db)
	if !data.Equal(res.Output, want) {
		t.Fatalf("no-skew triangle: got %d want %d", res.Output.NumTuples(), want.NumTuples())
	}
	if len(res.Rounds) != 1 {
		t.Errorf("triangle algorithm must be one-round, used %d", len(res.Rounds))
	}
}

func TestTriangleOneHeavyCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	q := query.Triangle()
	m := 600
	db := data.SkewedTriangleDatabase(rng, m, 1<<20, 5, 200)
	res := runGeneric(q, db, 27, 13)
	want := core.SequentialAnswer(q, db)
	if !data.Equal(res.Output, want) {
		t.Fatalf("one-heavy triangle: got %d want %d", res.Output.NumTuples(), want.NumTuples())
	}
}

func TestTriangleNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := query.Triangle()
	db := data.SkewedTriangleDatabase(rng, 400, 1<<20, 5, 150)
	res := runGeneric(q, db, 27, 7)
	if res.Output.NumTuples() != res.Output.Canonical().NumTuples() {
		t.Errorf("duplicates: %d vs %d distinct",
			res.Output.NumTuples(), res.Output.Canonical().NumTuples())
	}
}

// TestTriangleDensePlusHeavy runs a dense random (non-matching) instance on
// a tiny domain, where heavy and light patterns mix.
func TestTriangleDensePlusHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	q := query.Triangle()
	db := data.NewDatabase(64) // tiny domain: plenty of triangles and skew
	for _, a := range q.Atoms {
		rel := data.NewRelation(a.Name, 2)
		for i := 0; i < 400; i++ {
			rel.Append(rng.Int63n(64), rng.Int63n(64))
		}
		db.Add(rel)
	}
	res := runGeneric(q, db, 27, 11)
	want := core.SequentialAnswer(q, db)
	// Dense random data yields duplicate input tuples, so compare as sets.
	if !data.Equal(res.Output, want) {
		t.Fatalf("dense triangle: got %d want %d distinct",
			res.Output.Canonical().NumTuples(), want.Canonical().NumTuples())
	}
}

func TestTriangleRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := query.Triangle()
		m := 150 + r.Intn(300)
		heavyCount := r.Intn(m / 2)
		db := data.SkewedTriangleDatabase(r, m, 1<<20, int64(r.Intn(10)), heavyCount)
		p := []int{8, 27, 64}[r.Intn(3)]
		res := runGeneric(q, db, p, seed)
		return data.Equal(res.Output, core.SequentialAnswer(q, db))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestTriangleSkewSeparation(t *testing.T) {
	// With a planted heavy value, the vanilla HC (which hashes obliviously)
	// should suffer a hotspot; the skew-aware algorithm should stay near the
	// skew-free load.
	rng := rand.New(rand.NewSource(12))
	q := query.Triangle()
	m := 4000
	p := 64
	db := data.SkewedTriangleDatabase(rng, m, 1<<22, 5, m/2)
	vanilla := core.Run(q, db, p, 3, core.SkewFree)
	aware := runGeneric(q, db, p, 3)
	if !data.Equal(vanilla.Output, aware.Output) {
		t.Fatal("outputs differ")
	}
	if aware.MaxLoadBits() >= vanilla.MaxLoadBits() {
		t.Errorf("skew-aware load %v should beat vanilla %v on skewed data",
			aware.MaxLoadBits(), vanilla.MaxLoadBits())
	}
}

func TestDetectHeavyHittersMPC(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	m := 4000
	rel := data.NewRelation("R", 2)
	other := data.SampleDistinct(rng, m, 1<<20)
	for i := 0; i < m; i++ {
		if i < 1000 {
			rel.Append(7, other[i]) // 25% heavy value
		} else {
			rel.Append(other[i], other[(i+1)%m])
		}
	}
	st := StatsSpec{Rels: []*data.Relation{rel}, Cols: []int{0}, Thresholds: []int{20}}.Run(16, 100, 3, 0)
	if st.Round.Name != "stats-sample" {
		t.Errorf("round=%+v want the one sampling round", st.Round)
	}
	est := st.PerAtom[0][7]
	if est < 500 || est > 2000 {
		t.Errorf("estimate for heavy value=%d want ≈1000", est)
	}
	// The statistics round must be cheap relative to the data: p candidates
	// a few values each.
	if st.Round.MaxRecvBits > 64*1000 {
		t.Errorf("stats load too high: %v", st.Round.MaxRecvBits)
	}
}

func TestRunStarSampledCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	q := query.Star(2)
	m := 1000
	db := data.SkewedStarDatabase(rng, 2, m, 1<<20, map[int64]int{7: m / 2})
	res := RunStarSampled(q, db, 16, 9, 100)
	want := core.SequentialAnswer(q, db)
	if !data.Equal(res.Output, want) {
		t.Fatalf("sampled star: got %d want %d", res.Output.NumTuples(), want.NumTuples())
	}
	if len(res.Rounds) != 2 {
		t.Errorf("rounds=%d want 2 (stats + data)", len(res.Rounds))
	}
}

func TestRunStarSampledLoadNearExact(t *testing.T) {
	if testing.Short() {
		t.Skip("two full m² joins; skipped in -short")
	}
	rng := rand.New(rand.NewSource(53))
	q := query.Star(2)
	m := 1200
	db := data.SkewedStarDatabase(rng, 2, m, 1<<20, map[int64]int{7: m})
	exact := runGeneric(q, db, 16, 9)
	sampled := RunStarSampled(q, db, 16, 9, 200)
	if !data.Equal(exact.Output, sampled.Output) {
		t.Fatal("outputs differ")
	}
	if sampled.MaxLoadBits() > 4*exact.MaxLoadBits() {
		t.Errorf("sampled load %v far above exact %v", sampled.MaxLoadBits(), exact.MaxLoadBits())
	}
}
