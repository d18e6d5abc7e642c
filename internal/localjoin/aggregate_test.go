package localjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"mpcquery/internal/aggregate"
	"mpcquery/internal/data"
	"mpcquery/internal/query"
)

// aggTestQueries are the shapes the kernel's fold path is exercised on,
// including repeated variables and a cartesian step.
func aggTestQueries() []*query.Query {
	return []*query.Query{
		query.Star(2),
		query.Triangle(),
		query.Chain(3),
		query.New("selfcol",
			query.Atom{Name: "R", Vars: []string{"x", "x"}},
			query.Atom{Name: "S", Vars: []string{"x", "y"}}),
		query.New("cartesian",
			query.Atom{Name: "R", Vars: []string{"x"}},
			query.Atom{Name: "S", Vars: []string{"y"}}),
	}
}

func randRels(rng *rand.Rand, q *query.Query, m int) []*data.Relation {
	rels := make([]*data.Relation, q.NumAtoms())
	for j, a := range q.Atoms {
		r := data.NewRelation(a.Name, a.Arity())
		row := make([]int64, a.Arity())
		for i := 0; i < m; i++ {
			for c := range row {
				row[c] = rng.Int63n(12) // small domain: dense joins, duplicates
			}
			r.AppendTuple(row)
		}
		rels[j] = r
	}
	return rels
}

// TestEvaluateAtomsAggregateMatchesFoldOfFullJoin is the kernel-level
// differential property: folding during the join must equal materializing
// the full join and folding afterwards, for every op, grouped and global.
func TestEvaluateAtomsAggregateMatchesFoldOfFullJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, q := range aggTestQueries() {
		vars := q.Vars()
		specs := []*aggregate.Plan{
			aggregate.NewPlan(aggregate.Count, "", vars[:1], true),
			aggregate.NewPlan(aggregate.Count, "", nil, true),
			aggregate.NewPlan(aggregate.Sum, vars[len(vars)-1], vars[:1], true),
			aggregate.NewPlan(aggregate.Min, vars[0], vars[len(vars)-1:], true),
			aggregate.NewPlan(aggregate.Max, vars[0], nil, true),
		}
		for trial := 0; trial < 10; trial++ {
			rels := randRels(rng, q, 40)
			sc := NewScratch()
			full := sc.EvaluateAtoms(q, rels, nil)
			for _, plan := range specs {
				want := FoldOutput(full, q, plan)
				got, raw := sc.EvaluateAtomsAggregate(q, rels, nil, plan)
				if raw != full.NumTuples() {
					t.Fatalf("%s %s: raw rows %d, join has %d", q.Name, plan.Describe(), raw, full.NumTuples())
				}
				if !partialsEqual(got, want) {
					t.Fatalf("%s trial %d %s: fold-during-join (%d groups) != fold-after-join (%d groups)",
						q.Name, trial, plan.Describe(), got.NumTuples(), want.NumTuples())
				}
			}
		}
	}
}

// partialsEqual compares two relations of (key..., value) partial rows as
// (key -> value) maps, order-insensitively; the value sits in column ka.
func partialsEqual(a, b *data.Relation) bool {
	if a.Arity != b.Arity || a.NumTuples() != b.NumTuples() {
		return false
	}
	ka := a.Arity - 1
	am := make(map[string]int64, a.NumTuples())
	for i := 0; i < a.NumTuples(); i++ {
		am[fmt.Sprint(a.Tuple(i)[:ka])] = a.At(i, ka)
	}
	for i := 0; i < b.NumTuples(); i++ {
		v, ok := am[fmt.Sprint(b.Tuple(i)[:ka])]
		if !ok || v != b.At(i, ka) {
			return false
		}
	}
	return true
}

func TestEvaluateAtomsAggregateEmptyInput(t *testing.T) {
	q := query.Star(2)
	rels := randRels(rand.New(rand.NewSource(1)), q, 10)
	rels[1] = data.NewRelation(q.Atoms[1].Name, 2) // one empty atom
	sc := NewScratch()
	plan := aggregate.NewPlan(aggregate.Count, "", []string{"z"}, true)
	got, raw := sc.EvaluateAtomsAggregate(q, rels, nil, plan)
	if raw != 0 || got.NumTuples() != 0 {
		t.Fatalf("empty input must fold to nothing, got %d rows (raw %d)", got.NumTuples(), raw)
	}
}

// TestEntryPointsAgreeOnMissingAndEmpty is the table of checkInputs' rule:
// on every kernel entry point a nil relation panics with
// *MissingRelationError whether or not an empty relation sits next to it, on
// either side of it; an empty relation alone yields the empty result.
func TestEntryPointsAgreeOnMissingAndEmpty(t *testing.T) {
	q := query.MustParse("q(x,y,z) :- R(x,y), S(y,z), T(z,x)")
	full := func(name string) *data.Relation { return data.FromTuples(name, 2, []int64{1, 1}) }
	empty := func(name string) *data.Relation { return data.NewRelation(name, 2) }
	plan := aggregate.NewPlan(aggregate.Count, "", []string{"x"}, true)
	entries := map[string]func(rels []*data.Relation) int{
		"Evaluate": func(rels []*data.Relation) int {
			m := make(map[string]*data.Relation)
			for j, r := range rels {
				if r != nil {
					m[q.Atoms[j].Name] = r
				}
			}
			return Evaluate(q, m).NumTuples()
		},
		"EvaluateAtoms": func(rels []*data.Relation) int {
			return NewScratch().EvaluateAtoms(q, rels, nil).NumTuples()
		},
		"EvaluateAtomsStream": func(rels []*data.Relation) int {
			return NewScratch().EvaluateAtomsStream(q, rels, nil, 4, func([]int64) {})
		},
		"EvaluateAtomsAggregate": func(rels []*data.Relation) int {
			_, rows := NewScratch().EvaluateAtomsAggregate(q, rels, nil, plan)
			return rows
		},
	}
	for _, tc := range []struct {
		label   string
		rels    []*data.Relation
		missing string // "" = no panic, the result has rows tuples
		rows    int
	}{
		{"all present", []*data.Relation{full("R"), full("S"), full("T")}, "", 1},
		{"one empty", []*data.Relation{full("R"), empty("S"), full("T")}, "", 0},
		{"one missing", []*data.Relation{full("R"), nil, full("T")}, "S", 0},
		{"empty before missing", []*data.Relation{empty("R"), full("S"), nil}, "T", 0},
		{"missing before empty", []*data.Relation{nil, full("S"), empty("T")}, "R", 0},
		{"all empty but one missing", []*data.Relation{empty("R"), nil, empty("T")}, "S", 0},
	} {
		for name, entry := range entries {
			func() {
				defer func() {
					r := recover()
					mre, ok := r.(*MissingRelationError)
					switch {
					case tc.missing == "" && r != nil:
						t.Errorf("%s / %s: unexpected panic %v", name, tc.label, r)
					case tc.missing != "" && (!ok || mre.Atom != tc.missing):
						t.Errorf("%s / %s: want *MissingRelationError for %s, got %v", name, tc.label, tc.missing, r)
					}
				}()
				if rows := entry(tc.rels); rows != tc.rows {
					t.Errorf("%s / %s: %d rows, want %d", name, tc.label, rows, tc.rows)
				}
			}()
		}
	}
}

// TestEvaluateAtomsAggregateSharedCache folds with a shared index cache from
// concurrent workers, mirroring a computation phase; run under -race this
// pins the fold path's cache usage.
func TestEvaluateAtomsAggregateSharedCache(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := query.Triangle()
	rels := randRels(rng, q, 60)
	plan := aggregate.NewPlan(aggregate.Sum, "x2", []string{"x1"}, true)
	scRef := NewScratch()
	want, _ := scRef.EvaluateAtomsAggregate(q, rels, nil, plan)

	sh := shareAll(NewIndexCache(), q)
	done := make(chan *data.Relation, 8)
	for w := 0; w < 8; w++ {
		go func() {
			sc := GrabScratch()
			defer sc.Release()
			got, _ := sc.EvaluateAtomsAggregate(q, rels, sh, plan)
			done <- got
		}()
	}
	for w := 0; w < 8; w++ {
		if got := <-done; !partialsEqual(got, want) {
			t.Fatal("shared-cache fold diverged from uncached fold")
		}
	}
}
