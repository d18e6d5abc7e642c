package localjoin

import (
	"fmt"
	"math/rand"
	"slices"
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
	return randRelsOver(rng, q, m, 12) // small domain: dense joins, duplicates
}

// randRelsOver draws m tuples per atom of q with values in [0, dom).
func randRelsOver(rng *rand.Rand, q *query.Query, m int, dom int64) []*data.Relation {
	rels := make([]*data.Relation, q.NumAtoms())
	for j, a := range q.Atoms {
		r := data.NewRelation(a.Name, a.Arity())
		row := make([]int64, a.Arity())
		for i := 0; i < m; i++ {
			for c := range row {
				row[c] = rng.Int63n(dom)
			}
			r.AppendTuple(row)
		}
		rels[j] = r
	}
	return rels
}

// checkFold is the kernel-level differential property: folding during the
// join must equal materializing the full join and folding afterwards — the
// same partial rows in the same first-contact order, and as many raw rows as
// the join has.
func checkFold(t *testing.T, label string, sc *Scratch, q *query.Query, rels []*data.Relation, sh *Shared, plan *aggregate.Plan) {
	t.Helper()
	full := NewScratch().EvaluateAtoms(q, rels, nil)
	want := FoldOutput(full, q, plan)
	got, raw := sc.EvaluateAtomsAggregate(q, rels, sh, plan)
	if raw != full.NumTuples() {
		t.Fatalf("%s %s: raw rows %d, join has %d", label, plan.Describe(), raw, full.NumTuples())
	}
	if got.Arity != want.Arity || !slices.Equal(got.Vals(), want.Vals()) {
		t.Fatalf("%s %s: fold-during-join rows differ from fold-after-join rows:\n got %v\nwant %v",
			label, plan.Describe(), got.Vals(), want.Vals())
	}
}

// countedSteps returns how many trailing join steps the fold path counts
// instead of enumerating on this input.
func countedSteps(q *query.Query, rels []*data.Relation, plan *aggregate.Plan) int {
	sc := NewScratch()
	steps, k, _ := sc.planFold(q, sc.greedyOrder(q, rels), plan)
	return len(steps) - k
}

// TestEvaluateAtomsAggregateMatchesFoldOfFullJoin runs checkFold for every
// op, grouped and global, on every test shape, then on cases that pin how
// many trailing steps are counted. One scratch serves every trial of a
// shape, so a count memoized in one evaluation must not leak into the next.
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
		sc := NewScratch()
		for trial := 0; trial < 10; trial++ {
			rels := randRels(rng, q, 40)
			for _, plan := range specs {
				checkFold(t, fmt.Sprintf("%s trial %d", q.Name, trial), sc, q, rels, nil, plan)
			}
		}
	}

	repeated := query.New("repeated",
		query.Atom{Name: "R", Vars: []string{"x", "x"}},
		query.Atom{Name: "S", Vars: []string{"x", "y", "y"}},
		query.Atom{Name: "T", Vars: []string{"w", "w"}})
	// near62 puts the first atom's second column near 2⁶²: summed over
	// multiplicities above 2, the values wrap.
	near62 := func(rng *rand.Rand, q *query.Query) []*data.Relation {
		rels := randRelsOver(rng, q, 40, 3)
		rels[0] = data.NewRelation(q.Atoms[0].Name, 2)
		for i := 0; i < 30; i++ {
			rels[0].Append(rng.Int63n(3), 1<<62+rng.Int63n(8))
		}
		return rels
	}
	over := func(dom int64) func(*rand.Rand, *query.Query) []*data.Relation {
		return func(rng *rand.Rand, q *query.Query) []*data.Relation { return randRelsOver(rng, q, 40, dom) }
	}
	for _, c := range []struct {
		name    string
		q       *query.Query
		rels    func(*rand.Rand, *query.Query) []*data.Relation
		plan    *aggregate.Plan
		counted int  // trailing steps counted, not enumerated
		shared  bool // indexes from a shared IndexCache
	}{
		{"T3 count by z", query.Star(3), over(12), aggregate.NewPlan(aggregate.Count, "", []string{"z"}, true), 2, false},
		{"grouped by the last atom's variable", query.Chain(3), over(12), aggregate.NewPlan(aggregate.Count, "", []string{"x3"}, true), 0, false},
		{"repeated variables, cartesian step", repeated, over(3), aggregate.NewPlan(aggregate.Count, "", []string{"x"}, true), 2, false},
		{"repeated variables, max", repeated, over(3), aggregate.NewPlan(aggregate.Max, "x", nil, true), 2, false},
		{"sum near 2^62", query.Star(2), near62, aggregate.NewPlan(aggregate.Sum, "x1", []string{"z"}, true), 1, false},
		{"shared cache, one key", query.Star(2), over(12), aggregate.NewPlan(aggregate.Count, "", []string{"z"}, true), 1, true},
		{"shared cache, two keys", query.Triangle(), over(12), aggregate.NewPlan(aggregate.Min, "x2", []string{"x1"}, true), 1, true},
	} {
		sc := NewScratch()
		for trial := 0; trial < 10; trial++ {
			rels := c.rels(rng, c.q)
			if got := countedSteps(c.q, rels, c.plan); got != c.counted {
				t.Fatalf("%s: %d steps counted, want %d", c.name, got, c.counted)
			}
			if !c.shared {
				checkFold(t, c.name, sc, c.q, rels, nil, c.plan)
				continue
			}
			// The fold requests the indexes the full join requests.
			joinCache, foldCache := NewIndexCache(), NewIndexCache()
			NewScratch().EvaluateAtoms(c.q, rels, shareAll(joinCache, c.q))
			checkFold(t, c.name, sc, c.q, rels, shareAll(foldCache, c.q), c.plan)
			jh, jm := joinCache.Stats()
			fh, fm := foldCache.Stats()
			if jh != fh || jm != fm || fm == 0 {
				t.Fatalf("%s: the fold made %d hits and %d builds of the shared cache, the join %d and %d", c.name, fh, fm, jh, jm)
			}
		}
	}
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
	if countedSteps(q, rels, plan) == 0 {
		t.Fatal("no step is counted: the fold never reads a shared index without probing it")
	}

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
		if got := <-done; !slices.Equal(got.Vals(), want.Vals()) {
			t.Fatal("shared-cache fold diverged from uncached fold")
		}
	}
}

// FuzzAggregateFold runs checkFold on inputs decoded from bytes: a shape of
// aggTestQueries, an operator, a group-by subset and an aggregated variable,
// then per atom a tuple count and the tuples' values (a small domain, with
// the high bit of a byte adding 2⁶² so sums wrap). One scratch serves every
// input, as a worker's scratch serves every server of a phase.
func FuzzAggregateFold(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 5, 1, 2, 1, 3, 1, 9, 1, 1, 2, 1, 3})
	f.Add([]byte{1, 1, 0x21, 0, 7, 1, 2, 2, 3, 3, 1, 6, 2, 1, 3, 2, 1, 2, 6, 3, 3, 1, 1, 2})
	f.Add([]byte{3, 2, 0x12, 0, 6, 1, 1, 2, 2, 1, 2, 4, 1, 5, 1, 2, 2, 1})
	f.Add([]byte{4, 3, 0x01, 0, 3, 1, 0x82, 2, 4, 1, 2, 0x81, 0x82})
	f.Add([]byte{2, 1, 0x04, 0, 4, 0x81, 2, 2, 3, 3, 1, 4, 2, 3, 1, 1, 5, 1, 3, 2, 2, 3, 1})
	shapes := aggTestQueries()
	sc := NewScratch()
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4 {
			return
		}
		q := shapes[int(in[0])%len(shapes)]
		op := aggregate.Op(in[1] % 4)
		vars := q.Vars()
		var groupBy []string
		for i, v := range vars {
			if in[2]>>i&1 == 1 {
				groupBy = append(groupBy, v)
			}
		}
		of := ""
		if op != aggregate.Count {
			of = vars[int(in[3])%len(vars)]
		}
		next := func(i *int) byte {
			b := byte(0)
			if *i < len(in) {
				b = in[*i]
			}
			*i++
			return b
		}
		pos := 4
		rels := make([]*data.Relation, q.NumAtoms())
		for j, a := range q.Atoms {
			rels[j] = data.NewRelation(a.Name, a.Arity())
			row := make([]int64, a.Arity())
			for n := int(next(&pos) % 16); n > 0; n-- {
				for c := range row {
					b := next(&pos)
					row[c] = int64(b & 7)
					if b&0x80 != 0 {
						row[c] += 1 << 62
					}
				}
				rels[j].AppendTuple(row)
			}
		}
		checkFold(t, q.Name, sc, q, rels, nil, aggregate.NewPlan(op, of, groupBy, true))
	})
}
