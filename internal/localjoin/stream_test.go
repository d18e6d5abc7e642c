package localjoin

import (
	"math/rand"
	"testing"

	"mpcquery/internal/data"
	"mpcquery/internal/query"
)

// atomOrder lays out map-keyed relations in atom order, the indexing
// EvaluateAtoms and EvaluateAtomsStream share.
func atomOrder(q *query.Query, m map[string]*data.Relation) []*data.Relation {
	out := make([]*data.Relation, q.NumAtoms())
	for j := range q.Atoms {
		out[j] = m[q.Atoms[j].Name]
	}
	return out
}

func randomRelation(rng *rand.Rand, name string, arity, m, domain int) *data.Relation {
	rel := data.NewRelation(name, arity)
	row := make([]int64, arity)
	for i := 0; i < m; i++ {
		for c := range row {
			row[c] = int64(rng.Intn(domain))
		}
		rel.AppendTuple(row)
	}
	return rel
}

// TestEvaluateAtomsStreamMatchesMaterialized pins the streamed evaluator's
// contract: for every query shape, chunk size, and cache mode, the
// concatenation of the yielded blocks is byte-identical to EvaluateAtoms'
// output — same rows, same order, same column layout.
func TestEvaluateAtomsStreamMatchesMaterialized(t *testing.T) {
	queries := []string{
		"q(x,y,z) :- R(x,y), S(y,z)",
		"q(x1,x2,x3) :- S1(x1,x2), S2(x2,x3), S3(x3,x1)",
		"q(x,y1,y2,y3) :- S1(x,y1), S2(x,y2), S3(x,y3)",
		"q(x,y) :- R(x,x), S(x,y)",
		"q(x,y) :- R(x), S(y)",
		"q(x) :- R(x,x)",
	}
	for _, qs := range queries {
		q := query.MustParse(qs)
		rng := rand.New(rand.NewSource(42))
		m := make(map[string]*data.Relation)
		for j := range q.Atoms {
			a := &q.Atoms[j]
			if _, ok := m[a.Name]; ok {
				continue
			}
			// Small domain so joins actually match and repeated-variable
			// filters actually fire.
			m[a.Name] = randomRelation(rng, a.Name, a.Arity(), 40+j*7, 8)
		}

		ref := GrabScratch()
		want := ref.EvaluateAtoms(q, atomOrder(q, m), nil)
		ref.Release()

		for _, chunk := range []int{1, 3, 7, 1 << 20} {
			for _, useCache := range []bool{false, true} {
				var cache *Shared
				if useCache {
					cache = shareAll(NewIndexCache(), q)
				}
				sc := GrabScratch()
				var got []int64
				n := sc.EvaluateAtomsStream(q, atomOrder(q, m), cache, chunk, func(vals []int64) {
					got = append(got, vals...)
				})
				sc.Release()
				if n != want.NumTuples() {
					t.Fatalf("%s chunk=%d cache=%v: %d rows, want %d", qs, chunk, useCache, n, want.NumTuples())
				}
				wantVals := want.Vals()
				if len(got) != len(wantVals) {
					t.Fatalf("%s chunk=%d cache=%v: %d values, want %d", qs, chunk, useCache, len(got), len(wantVals))
				}
				for i := range got {
					if got[i] != wantVals[i] {
						t.Fatalf("%s chunk=%d cache=%v: value %d = %d, want %d (order or content drift)",
							qs, chunk, useCache, i, got[i], wantVals[i])
					}
				}
			}
		}
	}
}

// TestEvaluateAtomsStreamCacheParity pins the cache-shape contract: a
// streamed evaluation performs the identical index-cache requests as the
// barrier path whatever its chunk size — one per step a binding reaches, none
// for the scanned first atom — so the hit/miss totals, which the obs trace
// renders in its deterministic Structure, cannot distinguish the two paths.
// The second query's join dies at its second atom in every window: the third
// atom's index must never be requested.
func TestEvaluateAtomsStreamCacheParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		q    string
		rels map[string]*data.Relation
		want int
	}{
		{"q(x,y,z) :- R(x,y), S(y,z)", map[string]*data.Relation{
			"R": randomRelation(rng, "R", 2, 50, 10),
			"S": randomRelation(rng, "S", 2, 60, 10),
		}, 1},
		{"q(x,y,z) :- R(x), S(x,y), T(y,z)", map[string]*data.Relation{
			"R": data.FromTuples("R", 1, []int64{1}, []int64{2}, []int64{3}),
			"S": data.FromTuples("S", 2, []int64{7, 7}, []int64{8, 8}, []int64{9, 9}, []int64{9, 1}),
			"T": randomRelation(rng, "T", 2, 60, 10),
		}, 1},
	} {
		q := query.MustParse(tc.q)
		for _, chunk := range []int{0, 1, 8, 1 << 20} {
			for pass := 0; pass < 2; pass++ {
				cache := NewIndexCache()
				sc := GrabScratch()
				for i := 0; i <= pass; i++ {
					if chunk == 0 {
						sc.EvaluateAtoms(q, atomOrder(q, tc.rels), shareAll(cache, q))
					} else {
						sc.EvaluateAtomsStream(q, atomOrder(q, tc.rels), shareAll(cache, q), chunk, func([]int64) {})
					}
				}
				sc.Release()
				if hits, misses := cache.Stats(); misses != tc.want || hits != pass*tc.want {
					t.Fatalf("%s chunk=%d after %d evaluations: hits=%d misses=%d, want %d/%d",
						tc.q, chunk, pass+1, hits, misses, pass*tc.want, tc.want)
				}
			}
		}
	}
}

// TestEvaluateAtomsStreamEmptyInput pins the empty-relation fast path.
func TestEvaluateAtomsStreamEmptyInput(t *testing.T) {
	q := query.MustParse("q(x,y,z) :- R(x,y), S(y,z)")
	m := map[string]*data.Relation{
		"R": data.FromTuples("R", 2, []int64{1, 2}),
		"S": data.NewRelation("S", 2),
	}
	sc := GrabScratch()
	defer sc.Release()
	calls := 0
	if n := sc.EvaluateAtomsStream(q, atomOrder(q, m), nil, 4, func([]int64) { calls++ }); n != 0 || calls != 0 {
		t.Fatalf("empty input: n=%d calls=%d, want 0/0", n, calls)
	}
}
