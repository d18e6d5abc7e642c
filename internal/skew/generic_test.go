package skew

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/query"
)

// runGeneric prepares and runs the generic algorithm in process with no
// load cap.
func runGeneric(q *query.Query, db *data.Database, p int, seed int64) *engine.RunRecord {
	return RunGenericPlannedNet(PrepareGeneric(q, db, p), q, db, seed, 0, nil, engine.Env{})
}

func TestGenericNoSkewMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, q := range []*query.Query{query.Triangle(), query.Chain(3), query.Star(3)} {
		db := data.MatchingDatabase(rng, q, 400, 1<<20)
		res := runGeneric(q, db, 16, 7)
		if !data.Equal(res.Output, core.SequentialAnswer(q, db)) {
			t.Errorf("%s: generic output mismatch", q.Name)
		}
		if len(res.Rounds) != 1 {
			t.Errorf("%s: rounds=%d want 1", q.Name, len(res.Rounds))
		}
	}
}

func TestGenericStarSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := query.Star(2)
	m := 500
	db := data.SkewedStarDatabase(rng, 2, m, 1<<20, map[int64]int{7: m / 2, 9: m / 4})
	res := runGeneric(q, db, 16, 3)
	want := core.SequentialAnswer(q, db)
	if !data.Equal(res.Output, want) {
		t.Fatalf("generic star: got %d want %d", res.Output.NumTuples(), want.NumTuples())
	}
	if res.Output.NumTuples() != res.Output.Canonical().NumTuples() {
		t.Error("patterns must partition the output (no duplicates)")
	}
}

func TestGenericTriangleSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := query.Triangle()
	db := data.SkewedTriangleDatabase(rng, 500, 1<<20, 5, 150)
	res := runGeneric(q, db, 27, 5)
	want := core.SequentialAnswer(q, db)
	if !data.Equal(res.Output, want) {
		t.Fatalf("generic triangle: got %d want %d", res.Output.NumTuples(), want.NumTuples())
	}
}

// TestGenericChainSkew: the chain L3 with a heavy middle value — a query
// the specialized star/triangle algorithms cannot handle.
func TestGenericChainSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q := query.Chain(3)
	n := int64(1 << 20)
	m := 600
	db := data.NewDatabase(n)
	// S2 has a heavy value on x1 (its first column).
	s2 := data.NewRelation("S2", 2)
	other := data.SampleDistinct(rng, m, n)
	for i := 0; i < m; i++ {
		if i < 200 {
			s2.Append(7, other[i])
		} else {
			s2.Append(other[i], other[(i+1)%m])
		}
	}
	db.Add(data.RandomMatching(rng, "S1", 2, m, n))
	db.Add(s2)
	db.Add(data.RandomMatching(rng, "S3", 2, m, n))
	res := runGeneric(q, db, 16, 9)
	want := core.SequentialAnswer(q, db)
	if !data.Equal(res.Output, want) {
		t.Fatalf("generic chain: got %d want %d", res.Output.NumTuples(), want.NumTuples())
	}
}

func TestGenericDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		qs := []*query.Query{query.Triangle(), query.Chain(2), query.Star(2)}
		q := qs[r.Intn(len(qs))]
		db := data.NewDatabase(48)
		for _, a := range q.Atoms {
			rel := data.NewRelation(a.Name, 2)
			m := 50 + r.Intn(150)
			for i := 0; i < m; i++ {
				rel.Append(r.Int63n(48), r.Int63n(48))
			}
			db.Add(rel)
		}
		res := runGeneric(q, db, 8, seed)
		return data.Equal(res.Output, core.SequentialAnswer(q, db))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestGenericBeatsVanillaUnderSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := query.Star(2)
	m := 800 // fully skewed: output is m², keep it small
	p := 16
	db := data.SkewedStarDatabase(rng, 2, m, 1<<20, map[int64]int{7: m})
	vanilla := core.Run(q, db, p, 3, core.SkewFree)
	gen := runGeneric(q, db, p, 3)
	if !data.Equal(vanilla.Output, gen.Output) {
		t.Fatal("outputs differ")
	}
	if gen.MaxLoadBits() >= vanilla.MaxLoadBits() {
		t.Errorf("generic %v should beat vanilla %v on fully skewed join",
			gen.MaxLoadBits(), vanilla.MaxLoadBits())
	}
}
