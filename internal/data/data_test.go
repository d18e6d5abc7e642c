package data

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"mpcquery/internal/query"
)

// maxDegree returns the largest frequency in the column.
func maxDegree(r *Relation, col int) int {
	best := 0
	for _, c := range ColumnFrequencies(r, col) {
		best = max(best, c)
	}
	return best
}

func TestRelationBasics(t *testing.T) {
	r := NewRelation("R", 2)
	r.Append(1, 2)
	r.Append(3, 4)
	if r.NumTuples() != 2 {
		t.Fatalf("NumTuples=%d", r.NumTuples())
	}
	if r.At(1, 0) != 3 || r.At(1, 1) != 4 {
		t.Fatalf("At wrong: %v", r.Tuple(1))
	}
	c := r.Clone()
	c.Append(5, 6)
	if r.NumTuples() != 2 {
		t.Error("Clone should not share storage")
	}
}

func TestBitsPerValue(t *testing.T) {
	tests := []struct {
		n    int64
		want int
	}{{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11}}
	for _, tt := range tests {
		if got := BitsPerValue(tt.n); got != tt.want {
			t.Errorf("BitsPerValue(%d)=%d want %d", tt.n, got, tt.want)
		}
	}
}

func TestSizeBits(t *testing.T) {
	r := NewRelation("R", 2)
	for i := int64(0); i < 10; i++ {
		r.Append(i, i)
	}
	if got := r.SizeBits(1024); got != 2*10*10 {
		t.Errorf("SizeBits=%v want 200", got)
	}
}

func TestCanonicalAndEqual(t *testing.T) {
	a := FromTuples("A", 2, []int64{3, 4}, []int64{1, 2}, []int64{3, 4})
	b := FromTuples("B", 2, []int64{1, 2}, []int64{3, 4})
	if !Equal(a, b) {
		t.Error("sets should be equal despite order and duplicates")
	}
	c := FromTuples("C", 2, []int64{1, 2})
	if Equal(a, c) {
		t.Error("different sets reported equal")
	}
	can := a.Canonical()
	if can.NumTuples() != 2 || can.At(0, 0) != 1 {
		t.Errorf("canonical wrong: %v tuples, first %v", can.NumTuples(), can.Tuple(0))
	}
}

func TestSampleDistinct(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := SampleDistinct(rng, 100, 150)
	if len(s) != 100 {
		t.Fatalf("len=%d", len(s))
	}
	seen := make(map[int64]bool)
	for _, v := range s {
		if v < 0 || v >= 150 {
			t.Fatalf("out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate value %d", v)
		}
		seen[v] = true
	}
}

// TestRandomMatchingDegrees checks the defining property of a matching
// database: every value has degree at most 1 in every column.
func TestRandomMatchingDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		arity := 1 + r.Intn(3)
		m := 1 + r.Intn(200)
		n := int64(m + r.Intn(1000))
		rel := RandomMatching(r, "R", arity, m, n)
		if rel.NumTuples() != m {
			return false
		}
		for c := 0; c < arity; c++ {
			if maxDegree(rel, c) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestMatchingDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := query.Triangle()
	db := MatchingDatabase(rng, q, 100, 10000)
	if len(db.Relations) != 3 {
		t.Fatalf("relations=%d", len(db.Relations))
	}
	for _, a := range q.Atoms {
		r := db.Get(a.Name)
		if r.NumTuples() != 100 || r.Arity != 2 {
			t.Errorf("%s: %d tuples arity %d", a.Name, r.NumTuples(), r.Arity)
		}
	}
	if db.TotalBits() != 3*2*100*14 {
		t.Errorf("TotalBits=%v", db.TotalBits())
	}
}

// TestChainMatchingDatabase checks that the chain database composes:
// following S1..Sk from any start value reaches exactly one end value.
func TestChainMatchingDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	k, m := 4, 50
	db := ChainMatchingDatabase(rng, k, m, 100000)
	// Build maps and compose.
	cur := make(map[int64]int64)
	first := db.Get("S1")
	for i := 0; i < first.NumTuples(); i++ {
		cur[first.At(i, 0)] = first.At(i, 1)
	}
	if len(cur) != m {
		t.Fatalf("S1 not injective on column 0")
	}
	for j := 2; j <= k; j++ {
		r := db.Get(query.Chain(k).Atoms[j-1].Name)
		step := make(map[int64]int64)
		for i := 0; i < r.NumTuples(); i++ {
			step[r.At(i, 0)] = r.At(i, 1)
		}
		next := make(map[int64]int64, len(cur))
		for s, v := range cur {
			nv, ok := step[v]
			if !ok {
				t.Fatalf("chain broken at S%d: value %d has no successor", j, v)
			}
			next[s] = nv
		}
		cur = next
	}
	if len(cur) != m {
		t.Fatalf("chain outputs %d paths, want %d", len(cur), m)
	}
}

func TestSkewedStarDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	heavy := map[int64]int{7: 100, 9: 50}
	db := SkewedStarDatabase(rng, 3, 1000, 1_000_000, heavy)
	for j := 1; j <= 3; j++ {
		r := db.Get(query.Star(3).Atoms[j-1].Name)
		freq := ColumnFrequencies(r, 0)
		if freq[7] != 100 || freq[9] != 50 {
			t.Errorf("S%d heavy counts: %d, %d", j, freq[7], freq[9])
		}
		if maxDegree(r, 1) != 1 {
			t.Errorf("S%d x-column should be matching", j)
		}
	}
}

func TestSkewedTriangleDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := SkewedTriangleDatabase(rng, 500, 1_000_000, 3, 100)
	if got := ColumnFrequencies(db.Get("S1"), 0)[3]; got != 100 {
		t.Errorf("S1 x1-heavy count=%d", got)
	}
	if got := ColumnFrequencies(db.Get("S3"), 1)[3]; got != 100 {
		t.Errorf("S3 x1-heavy count=%d", got)
	}
	if maxDegree(db.Get("S2"), 0) != 1 || maxDegree(db.Get("S2"), 1) != 1 {
		t.Error("S2 should be a matching")
	}
}

func TestHeavyHitters(t *testing.T) {
	col := slices.Concat(slices.Repeat([]int64{3}, 5), slices.Repeat([]int64{2}, 50), slices.Repeat([]int64{1}, 100), []int64{4, 4, 4, 4, 4})
	hh := Heavy(col, 1, 0, 50)
	if want := []Run{{1, 100}, {2, 50}}; !slices.Equal(hh, want) {
		t.Errorf("heavy hitters: %v, want %v", hh, want)
	}
}

func TestLayeredPathGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := LayeredPathGraph(rng, 5, 20)
	if g.NumEdges() != 100 {
		t.Fatalf("edges=%d want 100", g.NumEdges())
	}
	comps := g.ComponentsSequential()
	labels := make(map[int64]bool)
	for _, l := range comps {
		labels[l] = true
	}
	if len(labels) != 20 {
		t.Errorf("components=%d want 20 (one per path)", len(labels))
	}
}

func TestRandomGraphAndComponents(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := RandomGraph(rng, 50, 10) // sparse: many components
	comps := g.ComponentsSequential()
	if len(comps) != 50 {
		t.Fatalf("every vertex should be labeled, got %d", len(comps))
	}
	// Endpoint labels must agree across each edge.
	for i := 0; i < g.NumEdges(); i++ {
		u, v := g.Edges.At(i, 0), g.Edges.At(i, 1)
		if comps[u] != comps[v] {
			t.Fatalf("edge (%d,%d) spans two components", u, v)
		}
	}
}

func TestCSVCommentsAndErrors(t *testing.T) {
	in := "# header\n1,2\n\n3,4\n"
	r, err := ReadCSV(strings.NewReader(in), "R", 2)
	if err != nil || r.NumTuples() != 2 {
		t.Fatalf("comments: %v, %d tuples", err, r.NumTuples())
	}
	if _, err := ReadCSV(strings.NewReader("1,2,3\n"), "R", 2); err == nil {
		t.Error("wrong arity should fail")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n"), "R", 2); err == nil {
		t.Error("non-integer should fail")
	}
}

func TestEqualMultiset(t *testing.T) {
	a := NewRelation("R", 2)
	a.Append(1, 2)
	a.Append(1, 2)
	a.Append(3, 4)
	b := NewRelation("R", 2)
	b.Append(3, 4)
	b.Append(1, 2)
	b.Append(1, 2)
	if !EqualMultiset(a, b) {
		t.Error("same bag in different order must be multiset-equal")
	}
	c := NewRelation("R", 2)
	c.Append(1, 2)
	c.Append(3, 4)
	if EqualMultiset(a, c) {
		t.Error("different multiplicities must not be multiset-equal")
	}
	if !Equal(a, c) {
		t.Error("set compare must ignore the duplicate")
	}
	d := NewRelation("R", 1)
	d.Append(1)
	if EqualMultiset(a, d) {
		t.Error("different arities must not be equal")
	}
}

// TestExtend pins the kernel's output append: Extend adds n tuples after
// what the relation holds and hands back exactly their storage, and
// extending a view never writes through to the borrowed values.
func TestExtend(t *testing.T) {
	got := NewRelation("r", 3)
	got.Append(7, 8, 9)
	want := []int64{7, 8, 9}
	for _, rows := range []int{0, 3, 1} {
		dst := got.Extend(rows)
		if len(dst) != rows*3 {
			t.Fatalf("Extend(%d) returned %d values, want %d", rows, len(dst), rows*3)
		}
		for i := range dst {
			dst[i] = int64(len(want))
			want = append(want, int64(len(want)))
		}
	}
	if got.NumTuples() != 5 || !slices.Equal(got.Vals(), want) {
		t.Fatalf("Extend built %v, want %v", got.Vals(), want)
	}

	one := NewRelation("one", 1)
	copy(one.Extend(3), []int64{5, 6, 7})
	if !slices.Equal(one.Vals(), []int64{5, 6, 7}) {
		t.Fatalf("arity 1: %v", one.Vals())
	}

	backing := []int64{1, 2, 3, 4}
	view := NewRelation("v", 2)
	view.SetView(backing)
	copy(view.Extend(1), []int64{5, 6})
	if !slices.Equal(backing, []int64{1, 2, 3, 4}) || !slices.Equal(view.Vals(), []int64{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("extending a view: backing %v, view %v", backing, view.Vals())
	}
}

// TestRelationView: a view reads borrowed storage in place, never writes
// through it, and lets go of it on Reset.
func TestRelationView(t *testing.T) {
	backing := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	r := NewRelation("R", 2)
	r.Append(9, 9)
	r.SetView(backing[:6])
	if !r.IsView() || r.NumTuples() != 3 || &r.Vals()[0] != &backing[0] {
		t.Fatalf("view of 3 tuples reads %v (view=%v)", r.Vals(), r.IsView())
	}
	r.Append(0, 0) // copies first: the borrowed storage stays as it was
	if backing[6] != 7 || r.NumTuples() != 4 {
		t.Fatalf("append to a view wrote through: backing %v, relation %v", backing, r.Vals())
	}
	r.SetView(backing[:4])
	r.Reset()
	r.Append(0, 0)
	if r.IsView() || backing[0] != 1 || r.NumTuples() != 1 {
		t.Fatalf("reset view still aliases its storage: backing %v, relation %v", backing, r.Vals())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a ragged view did not panic")
		}
	}()
	r.SetView(backing[:3])
}
