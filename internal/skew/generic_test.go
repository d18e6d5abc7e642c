package skew

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/localjoin"
	"mpcquery/internal/packing"
	"mpcquery/internal/query"
)

// runGeneric prepares and runs the generic algorithm in process with no
// load cap.
func runGeneric(q *query.Query, db *data.Database, p int, seed int64) *engine.RunRecord {
	return RunGenericPlannedNet(PrepareGeneric(q, db, p), q, db, seed, 0, nil, engine.Env{})
}

// runHyperCube runs HyperCube on p servers: GridPlan on the integer shares
// of the skew-free share LP (10), or of the skew-oblivious LP (18).
func runHyperCube(q *query.Query, db *data.Database, p int, seed int64, oblivious bool) *engine.RunRecord {
	stats := make([]float64, q.NumAtoms())
	for j, a := range q.Atoms {
		stats[j] = db.Get(a.Name).SizeBits(db.N)
	}
	exponents := packing.ShareExponents
	if oblivious {
		exponents = packing.SkewShareExponents
	}
	return runShares(q, db, packing.IntegerShares(exponents(q, stats, float64(p)).Exponents, p), seed)
}

// runShares runs HyperCube on explicit integer shares.
func runShares(q *query.Query, db *data.Database, shares []int, seed int64) *engine.RunRecord {
	return RunGenericPlannedNet(GridPlan(q, db, shares), q, db, seed, 0, nil, engine.Env{})
}

// sequentialAnswer is q(db) on one node, the oracle of the skew tests.
func sequentialAnswer(q *query.Query, db *data.Database) *data.Relation {
	rels := make(map[string]*data.Relation, q.NumAtoms())
	for _, a := range q.Atoms {
		rels[a.Name] = db.Get(a.Name)
	}
	return localjoin.Evaluate(q, rels)
}

func TestGenericNoSkewMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, q := range []*query.Query{query.Triangle(), query.Chain(3), query.Star(3)} {
		db := data.MatchingDatabase(rng, q, 400, 1<<20)
		res := runGeneric(q, db, 16, 7)
		if !data.Equal(res.Output, sequentialAnswer(q, db)) {
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
	want := sequentialAnswer(q, db)
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
	want := sequentialAnswer(q, db)
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
	want := sequentialAnswer(q, db)
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
		return data.Equal(res.Output, sequentialAnswer(q, db))
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
	vanilla := runHyperCube(q, db, p, 3, false)
	gen := runGeneric(q, db, p, 3)
	if !data.Equal(vanilla.Output, gen.Output) {
		t.Fatal("outputs differ")
	}
	if gen.MaxLoadBits() >= vanilla.MaxLoadBits() {
		t.Errorf("generic %v should beat vanilla %v on fully skewed join",
			gen.MaxLoadBits(), vanilla.MaxLoadBits())
	}
}

// refMapCounts is exactCounts written as plain map counts: every column
// is counted in full, its values of at least the cut are the candidates, and
// each candidate's count is read in all of its variable's columns.
func refMapCounts(q *query.Query, db *data.Database, light []int) [][]map[int64]int {
	full := make([][]map[int64]int, q.NumAtoms())
	candidates := make([]map[int64]bool, q.NumVars())
	for v := range candidates {
		candidates[v] = map[int64]bool{}
	}
	for j, a := range q.Atoms {
		rel := db.Get(a.Name)
		for c, v := range a.Vars {
			col := map[int64]int{}
			for i := 0; i < rel.NumTuples(); i++ {
				col[rel.At(i, c)]++
			}
			full[j] = append(full[j], col)
			for val, n := range col {
				if n >= heavyCut(rel.NumTuples(), light[q.VarIndex(v)]) {
					candidates[q.VarIndex(v)][val] = true
				}
			}
		}
	}
	counts := make([][]map[int64]int, q.NumAtoms())
	for j, a := range q.Atoms {
		for c, v := range a.Vars {
			col := map[int64]int{}
			for val := range candidates[q.VarIndex(v)] {
				if n := full[j][c][val]; n > 0 {
					col[val] = n
				}
			}
			counts[j] = append(counts[j], col)
		}
	}
	return counts
}

// screenBucket is data.Heavy's screen hash (2^b buckets, a Fibonacci
// multiplicative hash), which the cases below fill on purpose.
func screenBucket(v int64, b int) uint64 { return uint64(v) * 0x9e3779b97f4a7c15 >> (64 - b) }

// TestGenericScreenMatchesSortedCounts: finding each column's heavy values
// with data.Heavy and counting the candidates where they are light gives the
// counts of a full map count. The cases put values at cut − 1, the cut and
// cut + 1, distinct values in one screen bucket (so the bucket reaches the
// cut, the screen cannot stop early and the exact count must decide),
// constant and nearly constant columns of share-1 variables, negative
// values, relations of 0, 1 and 2 tuples, a repeated variable, and random
// columns.
func TestGenericScreenMatchesSortedCounts(t *testing.T) {
	db := func(rels ...*data.Relation) *data.Database {
		d := data.NewDatabase(1 << 20)
		for _, r := range rels {
			d.Add(r)
		}
		return d
	}
	rel := func(name string, vals ...int64) *data.Relation { return data.FromVals(name, 2, vals) }
	// pairs lays out x values as (x, 100000+i) tuples.
	pairs := func(name string, xs ...int64) *data.Relation {
		var vals []int64
		for i, x := range xs {
			vals = append(vals, x, int64(100_000+i))
		}
		return rel(name, vals...)
	}
	repeat := func(v int64, n int) []int64 { return slices.Repeat([]int64{v}, n) }
	check := func(name string, q *query.Query, d *data.Database, light []int) [][]map[int64]int {
		t.Helper()
		got, want := exactCounts(q, d, light), refMapCounts(q, d, light)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: counts %v, map reference %v", name, got, want)
		}
		return got
	}
	one := query.New("one", query.Atom{Name: "R", Vars: []string{"x", "y"}})
	two := query.New("two", query.Atom{Name: "R", Vars: []string{"x", "y"}}, query.Atom{Name: "T", Vars: []string{"x", "z"}})

	// m = 40 at share 4: the cut is 10.
	atCut := pairs("R", slices.Concat(repeat(1000, 10), repeat(2000, 9), data.SampleDistinct(rand.New(rand.NewSource(1)), 21, 1<<20))...)
	if got := check("cut", one, db(atCut), []int{4, 4}); !reflect.DeepEqual(got[0][0], map[int64]int{1000: 10}) {
		t.Errorf("cut: x counts %v, want only 1000 at the cut", got[0][0])
	}

	// Hitters at cut − 1, the cut and cut + 1 over ten distinct values.
	planted := pairs("R", slices.Concat(repeat(3000, 9), repeat(1000, 10), repeat(2000, 11), data.SampleDistinct(rand.New(rand.NewSource(2)), 10, 1<<20))...)
	if got := check("cut±1", one, db(planted), []int{4, 4}); !reflect.DeepEqual(got[0][0], map[int64]int{1000: 10, 2000: 11}) {
		t.Errorf("cut±1: x counts %v, want 1000 and 2000, not 3000", got[0][0])
	}
	// The same with negative values.
	planted = pairs("R", slices.Concat(repeat(-3, 9), repeat(-1, 10), repeat(-2, 11), repeat(-1<<40, 1), []int64{-5, -6, -7, -8, -9, -10, -11, -12, -13})...)
	if got := check("negative", one, db(planted), []int{4, 4}); !reflect.DeepEqual(got[0][0], map[int64]int{-1: 10, -2: 11}) {
		t.Errorf("negative: x counts %v, want -1 and -2, not -3", got[0][0])
	}

	// Values the screen (1024 buckets for 40 tuples at cut 10 or 40) puts in
	// one bucket, so that bucket reaches the cut and no value does: 40
	// distinct ones, at share 4 and at share 1, and twelve thrice each with
	// four others.
	var same []int64
	for v := int64(1); len(same) < 40; v++ {
		if screenBucket(v, 10) == screenBucket(0, 10) {
			same = append(same, v)
		}
	}
	for _, light := range [][]int{{4, 4}, {1, 1}} {
		check(fmt.Sprintf("bucket/distinct/%v", light), one, db(pairs("R", same...)), light)
	}
	thrice := func(vs []int64) (out []int64) {
		for _, v := range vs {
			out = append(out, v, v, v)
		}
		return out
	}
	check("bucket", one, db(pairs("R", append(thrice(same[:12]), 1, 2, 3, 4)...)), []int{4, 4})
	// The same bucket, 40 tuples, with one of its values at the cut.
	crowded := append(repeat(same[0], 10), thrice(same[1:11])...)
	if got := check("bucket/cut", one, db(pairs("R", crowded...)), []int{4, 4}); !reflect.DeepEqual(got[0][0], map[int64]int{same[0]: 10}) {
		t.Errorf("bucket/cut: x counts %v, want only %d at the cut", got[0][0], same[0])
	}

	// Share 1: the cut is m, so only a constant column holds a candidate.
	for _, xs := range [][]int64{repeat(5, 40), {5, 5, 5, 5, 5, 5}, {5, 5, 5, 5, 5, 6}, {6, 5, 5, 5, 5, 5}, {5, 5}, {5, 6}, {5}, {}} {
		for _, light := range [][]int{{1, 1}, {1, 2}, {2, 1}, {4, 4}} {
			check(fmt.Sprintf("constant/%v/%v", xs, light), one, db(pairs("R", xs...)), light)
		}
	}
	// A constant R column makes 5 a candidate of x; T's column, constant
	// but for its last tuple, has its count of 5 taken without being one.
	if got := check("constant/two", two, db(pairs("R", repeat(5, 6)...), rel("T", 5, 1, 5, 2, 5, 3, 6, 4)), []int{1, 8, 8}); got[1][0][5] != 3 {
		t.Errorf("constant/two: T counts %v, want 5 three times", got[1][0])
	}

	// m ∈ {0, 1, 2}.
	for _, r := range []*data.Relation{rel("R"), rel("R", 7, 8), rel("R", 7, 8, 7, 9), rel("R", 7, 8, 9, 8)} {
		for _, light := range [][]int{{1, 1}, {2, 2}, {1, 16}} {
			check(fmt.Sprintf("small/m=%d/%v", r.NumTuples(), light), one, db(r), light)
		}
	}

	// A repeated variable: R(x, x) counts x in both of its columns.
	rep := query.New("rep", query.Atom{Name: "R", Vars: []string{"x", "x"}}, query.Atom{Name: "S", Vars: []string{"x", "y"}})
	r := rel("R", slices.Concat(repeat(1, 20), repeat(2, 10))...)
	for range 15 {
		r.Append(3, 5000)
	}
	check("repeated", rep, db(r, pairs("S", slices.Concat(repeat(1, 4), repeat(3, 9), repeat(4, 12))...)), []int{4, 2})

	// Random columns over small domains, at random shares.
	rng := rand.New(rand.NewSource(9))
	for i := range 200 {
		q := []*query.Query{query.Triangle(), query.Chain(3), query.Star(2), rep}[i%4]
		d := data.NewDatabase(1 << 20)
		for _, a := range q.Atoms {
			r, dom := data.NewRelation(a.Name, a.Arity()), 1+rng.Int63n(24)
			for range rng.Intn(80) {
				r.Append(rng.Int63n(dom), rng.Int63n(dom))
			}
			d.Add(r)
		}
		light := make([]int, q.NumVars())
		for v := range light {
			light[v] = []int{1, 2, 3, 4, 8, 16}[rng.Intn(6)]
		}
		check(fmt.Sprintf("random/%d", i), q, d, light)
	}
}
