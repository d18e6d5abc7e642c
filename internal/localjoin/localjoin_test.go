package localjoin

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mpcquery/internal/data"
	"mpcquery/internal/query"
)

func rels(pairs ...*data.Relation) map[string]*data.Relation {
	m := make(map[string]*data.Relation)
	for _, r := range pairs {
		m[r.Name] = r
	}
	return m
}

func TestSimpleJoin(t *testing.T) {
	q := query.MustParse("q(x,y,z) :- R(x,y), S(y,z)")
	r := data.FromTuples("R", 2, []int64{1, 10}, []int64{2, 20}, []int64{3, 10})
	s := data.FromTuples("S", 2, []int64{10, 100}, []int64{20, 200}, []int64{10, 101})
	got := Evaluate(q, rels(r, s))
	want := data.FromTuples("q", 3,
		[]int64{1, 10, 100}, []int64{1, 10, 101},
		[]int64{2, 20, 200},
		[]int64{3, 10, 100}, []int64{3, 10, 101})
	if !data.Equal(got, want) {
		t.Fatalf("got %d tuples", got.NumTuples())
	}
}

func TestTriangle(t *testing.T) {
	q := query.Triangle() // S1(x1,x2), S2(x2,x3), S3(x3,x1)
	s1 := data.FromTuples("S1", 2, []int64{1, 2}, []int64{4, 5})
	s2 := data.FromTuples("S2", 2, []int64{2, 3}, []int64{5, 6})
	s3 := data.FromTuples("S3", 2, []int64{3, 1}, []int64{6, 7})
	got := Evaluate(q, rels(s1, s2, s3))
	want := data.FromTuples("q", 3, []int64{1, 2, 3}) // only (1,2,3) closes
	if !data.Equal(got, want) {
		t.Fatalf("got %v tuples", got.NumTuples())
	}
}

func TestCartesianProduct(t *testing.T) {
	q := query.MustParse("q(x,y) :- R(x), S(y)")
	r := data.FromTuples("R", 1, []int64{1}, []int64{2})
	s := data.FromTuples("S", 1, []int64{10}, []int64{20}, []int64{30})
	got := Evaluate(q, rels(r, s))
	if got.NumTuples() != 6 {
		t.Fatalf("cartesian: %d tuples want 6", got.NumTuples())
	}
}

func TestRepeatedVariableInAtom(t *testing.T) {
	q := query.MustParse("q(x,y) :- R(x,x), S(x,y)")
	r := data.FromTuples("R", 2, []int64{1, 1}, []int64{2, 3}) // (2,3) inconsistent
	s := data.FromTuples("S", 2, []int64{1, 9}, []int64{2, 8})
	got := Evaluate(q, rels(r, s))
	want := data.FromTuples("q", 2, []int64{1, 9})
	if !data.Equal(got, want) {
		t.Fatalf("repeated var handling wrong: %d tuples", got.NumTuples())
	}
}

func TestEmptyInput(t *testing.T) {
	q := query.MustParse("q(x,y,z) :- R(x,y), S(y,z)")
	r := data.NewRelation("R", 2)
	s := data.FromTuples("S", 2, []int64{1, 2})
	got := Evaluate(q, rels(r, s))
	if got.NumTuples() != 0 {
		t.Fatalf("empty join should be empty, got %d", got.NumTuples())
	}
}

func TestSingleAtomProjection(t *testing.T) {
	q := query.MustParse("q(x,y) :- R(x,y)")
	r := data.FromTuples("R", 2, []int64{1, 2}, []int64{3, 4})
	got := Evaluate(q, rels(r))
	if !data.Equal(got, r) {
		t.Fatal("single atom should pass through")
	}
}

// TestChainAgainstBruteForce cross-validates the evaluator on random chain
// data against a brute-force nested-loop join.
func TestChainAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := query.Chain(3)
		db := make(map[string]*data.Relation)
		for _, a := range q.Atoms {
			rel := data.NewRelation(a.Name, 2)
			m := 1 + r.Intn(30)
			for i := 0; i < m; i++ {
				rel.Append(int64(r.Intn(10)), int64(r.Intn(10)))
			}
			db[a.Name] = rel
		}
		got := Evaluate(q, db)
		want := bruteForceChain3(db)
		return data.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func bruteForceChain3(db map[string]*data.Relation) *data.Relation {
	s1, s2, s3 := db["S1"], db["S2"], db["S3"]
	out := data.NewRelation("q", 4)
	for i := 0; i < s1.NumTuples(); i++ {
		for j := 0; j < s2.NumTuples(); j++ {
			if s1.At(i, 1) != s2.At(j, 0) {
				continue
			}
			for k := 0; k < s3.NumTuples(); k++ {
				if s2.At(j, 1) != s3.At(k, 0) {
					continue
				}
				out.Append(s1.At(i, 0), s1.At(i, 1), s2.At(j, 1), s3.At(k, 1))
			}
		}
	}
	return out
}

// TestTriangleAgainstBruteForce cross-validates on the cyclic query.
func TestTriangleAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		q := query.Triangle()
		db := make(map[string]*data.Relation)
		for _, a := range q.Atoms {
			rel := data.NewRelation(a.Name, 2)
			m := 1 + r.Intn(40)
			for i := 0; i < m; i++ {
				rel.Append(int64(r.Intn(8)), int64(r.Intn(8)))
			}
			db[a.Name] = rel
		}
		got := Evaluate(q, db)
		want := bruteForceTriangle(db)
		return data.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func bruteForceTriangle(db map[string]*data.Relation) *data.Relation {
	s1, s2, s3 := db["S1"], db["S2"], db["S3"]
	out := data.NewRelation("q", 3)
	for i := 0; i < s1.NumTuples(); i++ {
		for j := 0; j < s2.NumTuples(); j++ {
			if s1.At(i, 1) != s2.At(j, 0) {
				continue
			}
			for k := 0; k < s3.NumTuples(); k++ {
				if s2.At(j, 1) == s3.At(k, 0) && s3.At(k, 1) == s1.At(i, 0) {
					out.Append(s1.At(i, 0), s1.At(i, 1), s2.At(j, 1))
				}
			}
		}
	}
	return out
}

func TestMatchingDatabaseJoinSize(t *testing.T) {
	// On a composing chain database, |L_k| = m exactly.
	rng := rand.New(rand.NewSource(23))
	db := data.ChainMatchingDatabase(rng, 4, 200, 1_000_000)
	q := query.Chain(4)
	m := make(map[string]*data.Relation)
	for _, a := range q.Atoms {
		m[a.Name] = db.Get(a.Name)
	}
	got := Evaluate(q, m)
	if got.NumTuples() != 200 {
		t.Fatalf("chain output=%d want 200", got.NumTuples())
	}
}
