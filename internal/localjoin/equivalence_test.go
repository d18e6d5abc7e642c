package localjoin

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mpcquery/internal/data"
	"mpcquery/internal/localjoin/baseline"
	"mpcquery/internal/query"
)

// randomQuery draws a full conjunctive query from a space that covers
// everything the kernel must handle: multiple atoms, arities 1–3, repeated
// variables inside an atom, shared variables across atoms, and disconnected
// (cartesian) components.
func randomQuery(r *rand.Rand) *query.Query {
	nAtoms := 1 + r.Intn(4)
	varPool := []string{"x", "y", "z", "u", "v"}
	atoms := make([]query.Atom, nAtoms)
	for j := range atoms {
		arity := 1 + r.Intn(3)
		vars := make([]string, arity)
		for c := range vars {
			vars[c] = varPool[r.Intn(len(varPool))]
		}
		atoms[j] = query.Atom{Name: fmt.Sprintf("S%d", j+1), Vars: vars}
	}
	return query.New("q", atoms...)
}

// randomRels draws one relation per atom over a tiny domain so joins
// actually hit, with occasional empty relations to exercise the fast path.
func randomRels(r *rand.Rand, q *query.Query) map[string]*data.Relation {
	rels := make(map[string]*data.Relation, q.NumAtoms())
	for _, a := range q.Atoms {
		rel := data.NewRelation(a.Name, a.Arity())
		m := r.Intn(40)
		if r.Intn(12) == 0 {
			m = 0
		}
		row := make([]int64, a.Arity())
		for i := 0; i < m; i++ {
			for c := range row {
				row[c] = int64(r.Intn(8))
			}
			rel.AppendTuple(row)
		}
		rels[a.Name] = rel
	}
	return rels
}

// sameRelationExactly compares two relations tuple-for-tuple IN ORDER — the
// bit-identity Report.Fingerprint demands, strictly stronger than multiset
// equality.
func sameRelationExactly(a, b *data.Relation) bool {
	if a.Arity != b.Arity || a.NumTuples() != b.NumTuples() {
		return false
	}
	av, bv := a.Vals(), b.Vals()
	for i := range av {
		if av[i] != bv[i] {
			return false
		}
	}
	return true
}

// TestKernelMatchesBaselineRandom is the property-based equivalence pin:
// over randomized queries and relations (seeded), the kernel must reproduce
// the baseline evaluator's output exactly — same tuples, same order, same
// multiplicities.
func TestKernelMatchesBaselineRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	s := NewScratch()
	for trial := 0; trial < 400; trial++ {
		q := randomQuery(r)
		rels := randomRels(r, q)
		got := s.Evaluate(q, rels)
		want := baseline.Evaluate(q, rels)
		if !sameRelationExactly(got, want) {
			t.Fatalf("trial %d: kernel diverged from baseline\nquery: %s\nkernel %d tuples, baseline %d tuples",
				trial, q, got.NumTuples(), want.NumTuples())
		}
		if !data.EqualMultiset(got, want) {
			t.Fatalf("trial %d: multiset mismatch on %s", trial, q)
		}
	}
}

// checkPathsAgainstBaseline evaluates q over rels on every kernel path — the
// materializing one, and the streamed one for chunk sizes 1, 7 and larger
// than any relation, each with private indexes and through a shared cache —
// and compares each result tuple-for-tuple, in order, with baseline.Evaluate.
func checkPathsAgainstBaseline(t *testing.T, label string, q *query.Query, rels map[string]*data.Relation) {
	t.Helper()
	want := baseline.Evaluate(q, rels)
	byAtom := make([]*data.Relation, q.NumAtoms())
	for j, a := range q.Atoms {
		byAtom[j] = rels[a.Name]
	}
	s := NewScratch()
	for _, shared := range []bool{false, true} {
		var sh *Shared
		if shared {
			sh = shareAll(NewIndexCache(), q)
		}
		if got := s.EvaluateAtoms(q, byAtom, sh); !sameRelationExactly(got, want) {
			t.Fatalf("%s shared=%v: barrier path has %d tuples, baseline %d (or another order) on %s",
				label, shared, got.NumTuples(), want.NumTuples(), q)
		}
		for _, chunk := range []int{1, 7, 1 << 20} {
			got := data.NewRelation(q.Name, q.NumVars())
			n := s.EvaluateAtomsStream(q, byAtom, sh, chunk, func(vals []int64) {
				if len(vals) == 0 {
					t.Fatalf("%s: empty block yielded", label)
				}
				got.AppendVals(vals)
			})
			if n != want.NumTuples() || !sameRelationExactly(got, want) {
				t.Fatalf("%s shared=%v chunk=%d: streamed path has %d tuples, baseline %d (or another order) on %s",
					label, shared, chunk, n, want.NumTuples(), q)
			}
		}
	}
}

// TestRewrittenStepsMatchBaseline pins the steps that no longer run through
// an index or a row buffer against the baseline evaluator: the scanned first
// atom (with and without a repeated-variable filter, including a filter that
// rejects every row of a window or of the relation), a keyless step after
// step 0 (a Cartesian atom met second, then a keyed one), and the bulk
// column append at its edges (no rows at all, arity 1, one column bound per
// step) — then the random query space of TestKernelMatchesBaselineRandom on
// every path.
func TestRewrittenStepsMatchBaseline(t *testing.T) {
	rel := func(name string, arity int, tuples ...[]int64) *data.Relation {
		r := data.NewRelation(name, arity)
		for _, tp := range tuples {
			r.AppendTuple(tp)
		}
		return r
	}
	seq := func(name string, n int, f func(i int64) []int64) *data.Relation {
		r := data.NewRelation(name, len(f(0)))
		for i := int64(0); i < int64(n); i++ {
			r.AppendTuple(f(i))
		}
		return r
	}
	for _, tc := range []struct {
		label string
		q     string
		rels  []*data.Relation
	}{
		{"scan only", "q(x,y) :- R(x,y)",
			[]*data.Relation{seq("R", 20, func(i int64) []int64 { return []int64{i % 3, i} })}},
		{"scan with filter", "q(x,y) :- R(x,x,y)",
			[]*data.Relation{seq("R", 30, func(i int64) []int64 { return []int64{i % 4, i % 3, i} })}},
		{"scan-first then probe", "q(x,y,z) :- R(x,y), S(y,z)", []*data.Relation{
			seq("R", 20, func(i int64) []int64 { return []int64{i, i % 5} }),
			seq("S", 25, func(i int64) []int64 { return []int64{i % 5, i} })}},
		{"filter rejects whole windows", "q(x,y) :- R(x,x), S(x,y)", []*data.Relation{
			seq("R", 24, func(i int64) []int64 { return []int64{i % 6, (i % 6) * (i / 16)} }),
			seq("S", 30, func(i int64) []int64 { return []int64{i % 6, i} })}},
		{"filter rejects every row", "q(x,y) :- R(x,x), S(x,y)", []*data.Relation{
			seq("R", 12, func(i int64) []int64 { return []int64{i, i + 1} }),
			seq("S", 30, func(i int64) []int64 { return []int64{i % 6, i} })}},
		{"cartesian pair", "q(x,y) :- R(x), S(y)", []*data.Relation{
			rel("R", 1, []int64{1}, []int64{2}, []int64{2}),
			rel("S", 1, []int64{7}, []int64{8}, []int64{7}, []int64{9})}},
		{"keyless step after step 0, keyed after it", "q(x,y,z) :- R(x), S(y), T(y,z)", []*data.Relation{
			rel("R", 1, []int64{1}, []int64{2}),
			rel("S", 1, []int64{3}, []int64{4}, []int64{3}),
			seq("T", 12, func(i int64) []int64 { return []int64{i % 5, i} })}},
		{"keyless step with a filter", "q(x,y) :- R(x), S(y,y)", []*data.Relation{
			rel("R", 1, []int64{1}, []int64{2}),
			seq("S", 9, func(i int64) []int64 { return []int64{i % 3, i % 2} })}},
		{"no output rows", "q(x,y,z) :- R(x,y), S(y,z)", []*data.Relation{
			seq("R", 10, func(i int64) []int64 { return []int64{i, i} }),
			seq("S", 10, func(i int64) []int64 { return []int64{i + 100, i} })}},
		{"arity-1 output", "q(x) :- R(x), S(x)", []*data.Relation{
			seq("R", 15, func(i int64) []int64 { return []int64{i % 7} }),
			seq("S", 10, func(i int64) []int64 { return []int64{i % 4} })}},
	} {
		q := query.MustParse(tc.q)
		rels := make(map[string]*data.Relation)
		for _, r := range tc.rels {
			rels[r.Name] = r
		}
		checkPathsAgainstBaseline(t, tc.label, q, rels)
	}

	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 150; trial++ {
		q := randomQuery(r)
		checkPathsAgainstBaseline(t, fmt.Sprintf("random trial %d", trial), q, randomRels(r, q))
	}
}

// shareAll is the handle of a server whose every fragment carries id 1: the
// tests' stand-in for the servers of one subcube of every route.
func shareAll(c *IndexCache, q *query.Query) *Shared {
	sh := &Shared{cache: c, ids: make([]uint64, q.NumAtoms())}
	for j := range sh.ids {
		sh.ids[j] = 1
	}
	return sh
}

// TestKernelCachedSharedAcrossWorkers drives the IndexCache exactly as a
// computation phase does — many workers, shared cache, the same fragment ids
// over the same fragments — and pins every result against the baseline, with
// the fetch check on. The counting rule: an evaluation requests one index per
// step a binding reaches after the scanned first atom, so all evaluations of
// one input request the same set, the first request of each builds, and every
// other one hits. Run under -race this is also the cache's concurrency test.
func TestKernelCachedSharedAcrossWorkers(t *testing.T) {
	VerifySharedForTest(true)
	defer VerifySharedForTest(false)
	r := rand.New(rand.NewSource(77))
	for trial := 0; trial < 25; trial++ {
		q := randomQuery(r)
		rels := randomRels(r, q)
		byAtom := make([]*data.Relation, q.NumAtoms())
		for j, a := range q.Atoms {
			byAtom[j] = rels[a.Name]
		}
		want := baseline.Evaluate(q, rels)

		alone := NewIndexCache()
		NewScratch().EvaluateAtoms(q, byAtom, shareAll(alone, q))
		_, requests := alone.Stats()
		if requests >= q.NumAtoms() {
			t.Fatalf("trial %d: %d index requests for %d atoms (the first atom is scanned)", trial, requests, q.NumAtoms())
		}

		cache := NewIndexCache()
		const workers, evals = 8, 3
		results := make([]*data.Relation, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sc := GrabScratch()
				defer sc.Release()
				// Each worker evaluates several times, as servers of one
				// phase would; the last result is compared.
				for i := 0; i < evals; i++ {
					results[w] = sc.EvaluateAtoms(q, byAtom, shareAll(cache, q))
				}
			}(w)
		}
		wg.Wait()
		for w, got := range results {
			if !sameRelationExactly(got, want) {
				t.Fatalf("trial %d worker %d: cached kernel diverged from baseline on %s", trial, w, q)
			}
		}
		if hits, misses := cache.Stats(); misses != requests || hits != (workers*evals-1)*requests {
			t.Fatalf("trial %d: hits=%d misses=%d, want %d/%d on %s", trial, hits, misses, (workers*evals-1)*requests, requests, q)
		}
	}
}

// TestIndexCacheSharesByFragmentID verifies the cache's keying: sharing is
// decided by the caller's fragment ids and never by content. Equal ids share
// one build per probed atom (the first atom of the order is scanned and never
// requested); different ids and id 0 do not share, whatever the fragments
// hold — annotated or plain, equal or not.
func TestIndexCacheSharesByFragmentID(t *testing.T) {
	q := query.MustParse("q(x,y,z) :- R(x,y), S(y,z)")
	mk := func() []*data.Relation {
		rr := data.FromTuples("R", 2, []int64{1, 2}, []int64{3, 4})
		ss := data.FromTuples("S", 2, []int64{2, 5}, []int64{4, 6}, []int64{4, 7})
		return []*data.Relation{rr, ss}
	}
	annotated := mk()
	annotated[1] = data.NewRelation("S", 2)
	for i, a := range []int64{10, 20, 30} {
		annotated[1].AppendAnnotatedTuple(mk()[1].Tuple(i), a)
	}
	cache := NewIndexCache()
	s := NewScratch()
	want := s.EvaluateAtoms(q, mk(), nil)
	for i, tc := range []struct {
		rels         []*data.Relation
		ids          []uint64
		hits, misses int // running totals
	}{
		{mk(), []uint64{5, 5}, 0, 1},
		{mk(), []uint64{5, 5}, 1, 1}, // fresh objects, same ids
		{mk(), []uint64{0, 5}, 2, 1}, // only the probed atom's id matters
		{mk(), []uint64{5, 6}, 2, 2}, // same content, another id: its own build
		{annotated, []uint64{5, 7}, 2, 3},
		{mk(), []uint64{5, 0}, 2, 3}, // id 0: private index, no cache traffic
		{mk(), []uint64{0, 0}, 2, 3},
	} {
		got := s.EvaluateAtoms(q, tc.rels, &Shared{cache: cache, ids: tc.ids})
		if !sameRelationExactly(got, want) {
			t.Fatalf("evaluation %d: result differs", i)
		}
		if hits, misses := cache.Stats(); hits != tc.hits || misses != tc.misses {
			t.Fatalf("evaluation %d (ids %v): hits=%d misses=%d, want %d/%d", i, tc.ids, hits, misses, tc.hits, tc.misses)
		}
	}
}

// TestScratchFragmentReuseDoesNotCorruptCache pins the aliasing hazard the
// cache's copy-on-build exists for: a worker's fragment buffers are reset
// and refilled between servers, and a cached index built from the earlier
// content must keep answering from its own snapshot.
func TestScratchFragmentReuseDoesNotCorruptCache(t *testing.T) {
	q := query.MustParse("q(x,y,z) :- R(x,y), S(y,z)")
	cache := NewIndexCache()
	s := NewScratch()

	frag := s.Fragments(q)
	frag[0].AppendVals([]int64{1, 10, 2, 20})
	frag[1].AppendVals([]int64{10, 100, 20, 200})
	first := s.EvaluateAtoms(q, frag, &Shared{cache: cache, ids: []uint64{1, 1}}).Clone()

	// Rebuild the same scratch fragments with different content under another
	// id (as the next server would), evaluate, then return to the original
	// server's subcube: the third evaluation must hit the entry snapshotted
	// at build time and still agree with the first.
	frag = s.Fragments(q)
	frag[0].AppendVals([]int64{7, 8})
	frag[1].AppendVals([]int64{8, 9})
	if out := s.EvaluateAtoms(q, frag, &Shared{cache: cache, ids: []uint64{2, 2}}); out.NumTuples() != 1 {
		t.Fatalf("intermediate content: got %d tuples, want 1", out.NumTuples())
	}
	frag = s.Fragments(q)
	frag[0].AppendVals([]int64{1, 10, 2, 20})
	frag[1].AppendVals([]int64{10, 100, 20, 200})
	again := s.EvaluateAtoms(q, frag, &Shared{cache: cache, ids: []uint64{1, 1}})
	if !sameRelationExactly(first, again) {
		t.Fatal("cached index answered from recycled fragment storage")
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 2 {
		t.Fatalf("hits=%d misses=%d, want 1/2", hits, misses)
	}
}

// TestVerifySharedCatchesBrokenProvenance: with the fetch check on, a server
// presenting another server's id over a different fragment is caught at the
// cache hit.
func TestVerifySharedCatchesBrokenProvenance(t *testing.T) {
	VerifySharedForTest(true)
	defer VerifySharedForTest(false)
	q := query.MustParse("q(x,y,z) :- R(x,y), S(y,z)")
	cache := NewIndexCache()
	s := NewScratch()
	r := data.FromTuples("R", 2, []int64{1, 2})
	s.EvaluateAtoms(q, []*data.Relation{r, data.FromTuples("S", 2, []int64{2, 5}, []int64{2, 6})}, shareAll(cache, q))
	defer func() {
		if recover() == nil {
			t.Fatal("want a panic on the mismatching hit")
		}
	}()
	s.EvaluateAtoms(q, []*data.Relation{r, data.FromTuples("S", 2, []int64{2, 5}, []int64{2, 7})}, shareAll(cache, q))
}

// TestEvaluateOrderedMissingRelation: the ablation entry point returns the
// typed sentinel instead of panicking across the computation phase.
func TestEvaluateOrderedMissingRelation(t *testing.T) {
	q := query.MustParse("q(x,y,z) :- R(x,y), S(y,z)")
	rels := map[string]*data.Relation{"R": data.FromTuples("R", 2, []int64{1, 2})}
	out, err := EvaluateOrdered(q, rels, []int{0, 1})
	if out != nil || err == nil {
		t.Fatalf("want nil result + error, got %v, %v", out, err)
	}
	if !errors.Is(err, ErrMissingRelation) {
		t.Fatalf("error %v is not ErrMissingRelation", err)
	}
	var mre *MissingRelationError
	if !errors.As(err, &mre) || mre.Atom != "S" {
		t.Fatalf("want MissingRelationError for S, got %v", err)
	}
}

// TestEvaluatePanicsTypedOnMissingRelation: the validated-input entry point
// panics with the same typed error, which the Run boundary converts.
func TestEvaluatePanicsTypedOnMissingRelation(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("want panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrMissingRelation) {
			t.Fatalf("panic value %v is not a typed missing-relation error", r)
		}
	}()
	q := query.MustParse("q(x,y) :- R(x), S(y)")
	Evaluate(q, map[string]*data.Relation{"R": data.FromTuples("R", 1, []int64{1})})
}
