package aggregate

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"mpcquery/internal/data"
)

func TestSemiringLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, op := range []Op{Count, Sum, Min, Max} {
		sr := ForOp(op)
		for trial := 0; trial < 200; trial++ {
			a, b, c := rng.Int63n(1000)-500, rng.Int63n(1000)-500, rng.Int63n(1000)-500
			if got, want := sr.Combine(a, b), sr.Combine(b, a); got != want {
				t.Fatalf("%s: not commutative: %d vs %d", sr.Name(), got, want)
			}
			l := sr.Combine(sr.Combine(a, b), c)
			r := sr.Combine(a, sr.Combine(b, c))
			if l != r {
				t.Fatalf("%s: not associative: %d vs %d", sr.Name(), l, r)
			}
			if got := sr.Combine(a, sr.Identity()); got != a {
				t.Fatalf("%s: identity broken: combine(%d, id) = %d", sr.Name(), a, got)
			}
			// The n-fold ⊕ is n chained Combines, over the whole int64
			// range so that count/sum wrap.
			w := int64(rng.Uint64())
			chained := w
			for n := int64(1); n <= 64; n++ {
				if got := sr.Repeat(w, n); got != chained {
					t.Fatalf("%s: Repeat(%d, %d) = %d, %d chained Combines give %d", sr.Name(), w, n, got, n, chained)
				}
				chained = sr.Combine(chained, w)
			}
		}
	}
}

func TestSemiringIdentities(t *testing.T) {
	if ForOp(Count).Identity() != 0 || ForOp(Sum).Identity() != 0 {
		t.Fatal("count/sum identity must be 0")
	}
	if ForOp(Min).Identity() != math.MaxInt64 {
		t.Fatal("min identity must be MaxInt64")
	}
	if ForOp(Max).Identity() != math.MinInt64 {
		t.Fatal("max identity must be MinInt64")
	}
}

func TestFoldTableAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		ka := 1 + rng.Intn(3)
		tbl := NewFoldTable(ka, ForOp(Sum))
		want := make(map[string]int64)
		order := []string{}
		key := make([]int64, ka)
		for i := 0; i < 500; i++ {
			for c := range key {
				key[c] = rng.Int63n(8) // few values -> many collisions and merges
			}
			v := rng.Int63n(100)
			ks := keyString(key)
			if _, ok := want[ks]; !ok {
				order = append(order, ks)
			}
			want[ks] += v
			tbl.Add(key, v)
		}
		if tbl.Len() != len(want) {
			t.Fatalf("trial %d: %d groups, want %d", trial, tbl.Len(), len(want))
		}
		res := tbl.Result("g")
		if res.Arity != ka+1 || res.NumTuples() != len(want) {
			t.Fatalf("trial %d: bad result shape", trial)
		}
		for i := 0; i < res.NumTuples(); i++ {
			ks := keyString(res.Tuple(i)[:ka])
			if res.At(i, ka) != want[ks] {
				t.Fatalf("trial %d: group %v = %d, want %d", trial, res.Tuple(i)[:ka], res.At(i, ka), want[ks])
			}
			if ks != order[i] {
				t.Fatalf("trial %d: group %d out of first-insertion order", trial, i)
			}
		}
	}
}

func keyString(key []int64) string {
	b := make([]byte, 0, len(key)*8)
	for _, v := range key {
		for s := 0; s < 8; s++ {
			b = append(b, byte(uint64(v)>>(8*s)))
		}
	}
	return string(b)
}

func TestFoldTableAddRowsMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ka := 2
	a := NewFoldTable(ka, ForOp(Max))
	b := NewFoldTable(ka, ForOp(Max))
	flat := make([]int64, 0, 300*(ka+1))
	for i := 0; i < 300; i++ {
		row := []int64{rng.Int63n(5), rng.Int63n(5), rng.Int63n(1000)}
		a.Add(row[:ka], row[ka])
		flat = append(flat, row...)
	}
	b.AddRows(flat)
	ra, rb := a.Result("x"), b.Result("x")
	if ra.NumTuples() != rb.NumTuples() {
		t.Fatalf("AddRows diverged: %d vs %d groups", ra.NumTuples(), rb.NumTuples())
	}
	for i := 0; i < ra.NumTuples(); i++ {
		for c := 0; c < ka; c++ {
			if ra.At(i, c) != rb.At(i, c) {
				t.Fatalf("group %d key mismatch", i)
			}
		}
		if ra.At(i, ka) != rb.At(i, ka) {
			t.Fatalf("group %d value mismatch", i)
		}
	}
}

// TestFoldTableResultIsWireFormat pins that partial rows are wire rows: a
// table's Result, fed through AddRows into a fresh table, comes back as the
// same rows in the same order, for every operator and key arity.
func TestFoldTableResultIsWireFormat(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, op := range []Op{Count, Sum, Min, Max} {
		for ka := 1; ka <= 3; ka++ {
			a := NewFoldTable(ka, ForOp(op))
			key := make([]int64, ka)
			for i := 0; i < 400; i++ {
				for c := range key {
					key[c] = rng.Int63n(6)
				}
				a.Add(key, rng.Int63n(1000)-500)
			}
			ra := a.Result("x")
			b := NewFoldTable(ka, ForOp(op))
			b.AddRows(ra.Vals())
			if rb := b.Result("x"); rb.Arity != ra.Arity || !slices.Equal(rb.Vals(), ra.Vals()) {
				t.Fatalf("%s ka=%d: refolded rows differ:\n got %v\nwant %v", op, ka, rb.Vals(), ra.Vals())
			}
		}
	}
}

func TestDestOfRangeAndDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 1000; trial++ {
		key := []int64{rng.Int63(), rng.Int63()}
		for _, p := range []int{1, 2, 7, 64} {
			d := DestOf(key, p)
			if d < 0 || d >= p {
				t.Fatalf("DestOf out of range: %d for p=%d", d, p)
			}
			if d != DestOf(key, p) {
				t.Fatal("DestOf not deterministic")
			}
		}
	}
	if DestOf([]int64{42}, 1) != 0 {
		t.Fatal("single server must receive everything")
	}
}

func TestFinalizeSortsAndDropsSyntheticKey(t *testing.T) {
	grouped := NewPlan(Count, "", []string{"z"}, true)
	p1 := data.FromTuples("a", 2, []int64{5, 2}, []int64{1, 7})
	p2 := data.FromTuples("a", 2, []int64{3, 4})
	out := Finalize("q", []*data.Relation{p1, nil, p2}, grouped)
	if out.Arity != 2 || out.NumTuples() != 3 {
		t.Fatalf("bad grouped output shape: arity %d, %d tuples", out.Arity, out.NumTuples())
	}
	wantRows := [][2]int64{{1, 7}, {3, 4}, {5, 2}}
	for i, w := range wantRows {
		if out.At(i, 0) != w[0] || out.At(i, 1) != w[1] {
			t.Fatalf("row %d = (%d,%d), want %v", i, out.At(i, 0), out.At(i, 1), w)
		}
	}

	global := NewPlan(Count, "", nil, true)
	g := data.FromTuples("a", 2, []int64{0, 11})
	gout := Finalize("q", []*data.Relation{g}, global)
	if gout.Arity != 1 || gout.NumTuples() != 1 || gout.At(0, 0) != 11 {
		t.Fatalf("global output wrong: arity %d tuples %d", gout.Arity, gout.NumTuples())
	}
	// Empty join: no partials anywhere -> zero rows, not a zero row.
	empty := Finalize("q", []*data.Relation{nil, nil}, global)
	if empty.NumTuples() != 0 {
		t.Fatal("empty aggregate must have no rows")
	}
}

func TestProjectRawKeepsMultiplicity(t *testing.T) {
	out := data.FromTuples("q", 2, []int64{1, 10}, []int64{1, 20}, []int64{1, 10})
	p := NewPlan(Count, "", []string{"x"}, false)
	raw := ProjectRaw(out, []int{0}, -1, p)
	if raw.NumTuples() != 3 || raw.Arity != 2 {
		t.Fatalf("raw projection must keep one (key, value) row per output tuple, got %d of arity %d", raw.NumTuples(), raw.Arity)
	}
	for i := 0; i < 3; i++ {
		if raw.At(i, 0) != 1 || raw.At(i, 1) != 1 {
			t.Fatal("count projection must carry the key and 1 per row")
		}
	}
	sum := NewPlan(Sum, "y", []string{"x"}, false)
	rawSum := ProjectRaw(out, []int{0}, 1, sum)
	if rawSum.At(0, 1) != 10 || rawSum.At(1, 1) != 20 {
		t.Fatal("sum projection must annotate the aggregated column value")
	}
}
