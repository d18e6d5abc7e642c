package skew

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/query"
)

func skewedTriDB(seed int64, m int, n int64, h, cnt int) *data.Database {
	rng := rand.New(rand.NewSource(seed))
	db := data.NewDatabase(n)
	for _, name := range []string{"S1", "S2", "S3"} {
		r := data.NewRelation(name, 2)
		i := 0
		for v := 0; v < h; v++ {
			for c := 0; c < cnt && i < m; c++ {
				r.Append(int64(v+1), rng.Int63n(n))
				i++
			}
		}
		for v := 0; v < h; v++ {
			for c := 0; c < cnt && i < m; c++ {
				r.Append(rng.Int63n(n), int64(v+1))
				i++
			}
		}
		for ; i < m; i++ {
			r.Append(rng.Int63n(n), rng.Int63n(n))
		}
		db.Add(r)
	}
	return db
}

// matches reports whether a tuple of an atom (with the given variable dims)
// is consistent with the pattern: pinned to its value where the pattern pins
// the variable, light where it does not.
func (pat *genPattern) matches(dims []int, tuple []int64, heavy []map[int64]bool) bool {
	for c, d := range dims {
		if hv, pinned := pat.assign[d]; pinned {
			if tuple[c] != hv {
				return false
			}
		} else if heavy[d][tuple[c]] {
			return false
		}
	}
	return true
}

// TestGenericRouteIndexMatchesBruteForce pins the routing index to its
// specification: for every tuple of every relation, the pattern list under
// the tuple's heavy/light signature must be exactly the patterns the
// brute-force matches predicate accepts, in enumeration order. At p = 64
// the skew-free shares are 4/4/4, so the cut is 100: the value 1 of every
// variable (degree 120) is heavy and the 160 random tuples per relation
// are light, which yields the signatures light-light, heavy-light and
// light-heavy.
func TestGenericRouteIndexMatchesBruteForce(t *testing.T) {
	q := query.Triangle()
	db := skewedTriDB(7, 400, 1<<16, 1, 120)
	gp := PrepareGeneric(q, db, 64, 6)

	checked := 0
	classes := map[string]int{} // per signature class, e.g. "HL": tuples checked
	for j, a := range q.Atoms {
		rel := db.Get(a.Name)
		dims := gp.atomDims[j]
		var sig []byte
		for i := 0; i < rel.NumTuples(); i++ {
			tuple := rel.Tuple(i)
			sig = appendSignature(sig[:0], dims, func(c, d int) (int64, bool) {
				return tuple[c], gp.heavy[d][tuple[c]]
			})
			indexed := gp.routes[j][string(sig)]
			var brute []*genPattern
			for _, pat := range gp.patterns {
				if pat.matches(dims, tuple, gp.heavy) {
					brute = append(brute, pat)
				}
			}
			if len(indexed) != len(brute) {
				t.Fatalf("atom %d tuple %v: index has %d patterns, brute force %d", j, tuple, len(indexed), len(brute))
			}
			for k := range brute {
				if indexed[k] != brute[k] {
					t.Fatalf("atom %d tuple %v: pattern order diverges at %d", j, tuple, k)
				}
			}
			class := ""
			for c, d := range dims {
				class += map[bool]string{false: "L", true: "H"}[gp.heavy[d][tuple[c]]]
			}
			classes[class]++
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no tuples checked")
	}
	t.Logf("tuples checked per signature class: %v", classes)
	for _, class := range []string{"LL", "HL", "LH"} {
		if classes[class] == 0 {
			t.Errorf("no %s tuple checked (classes %v)", class, classes)
		}
	}
}

// TestPreparedRunsMatchUnprepared asserts the prepare/execute split is pure
// refactoring: running a prepared plan twice and the one-shot entry points
// produce identical results, and a prepared plan is reusable.
func TestPreparedRunsMatchUnprepared(t *testing.T) {
	n := int64(1 << 16)
	rng := rand.New(rand.NewSource(3))

	// The star names are the generic planner's: the prepared plan, fed the
	// exact z-counts, runs as the one-shot path and is reusable.
	star := query.Star(2)
	starDB := data.SkewedStarDatabase(rng, 2, 500, n, map[int64]int{7: 60, 9: 40})
	sp := refPrepareStar(star, starDB, 16)
	a := RunStarPlannedNet(sp, star, starDB, 16, 5, 0, engine.Env{})
	b := RunStarPlannedNet(sp, star, starDB, 16, 5, 0, engine.Env{})
	c := runGeneric(star, starDB, 16, 5, math.MaxInt)
	if a.MaxLoadBits() != c.MaxLoadBits() || a.TotalBits() != c.TotalBits() || !data.EqualMultiset(a.Output, c.Output) {
		t.Error("star: prepared run differs from one-shot run")
	}
	if b.MaxLoadBits() != a.MaxLoadBits() || !data.EqualMultiset(a.Output, b.Output) {
		t.Error("star: prepared plan not reusable")
	}
	if sp.HeavyHitters() != a.HeavyHitters || sp.ServersUsed() != a.ServersUsed {
		t.Errorf("star plan accessors disagree with the run: %d/%d vs %d/%d",
			sp.HeavyHitters(), sp.ServersUsed(), a.HeavyHitters, a.ServersUsed)
	}

	tri := query.Triangle()
	triDB := data.SkewedTriangleDatabase(rng, 500, n, 7, 60)
	tp := PrepareTriangle(tri, triDB, 16)
	ta := RunTrianglePlannedNet(tp, tri, triDB, 16, 5, 0, engine.Env{})
	tc := runGeneric(tri, triDB, 16, 5, math.MaxInt)
	if ta.MaxLoadBits() != tc.MaxLoadBits() || ta.TotalBits() != tc.TotalBits() || !data.EqualMultiset(ta.Output, tc.Output) {
		t.Error("triangle: prepared run differs from one-shot run")
	}
	if tp.HeavyHitters() != ta.HeavyHitters || tp.ServersUsed() != ta.ServersUsed {
		t.Error("triangle plan accessors disagree with the run")
	}

	// At p = 16 the skew-free shares are 3/2/2 (cuts 134 and 200): the value
	// 1 of x1 (degree 140) is heavy, and 260 of the 400 tuples of S1 and S3
	// and all of S2 are light.
	genDB := skewedTriDB(11, 400, n, 1, 140)
	gp := PrepareGeneric(tri, genDB, 16, 6)
	ga := RunGenericPlannedNet(gp, tri, genDB, 16, 5, 0, engine.Env{})
	gc := runGeneric(tri, genDB, 16, 5, 6)
	if ga.MaxLoadBits() != gc.MaxLoadBits() || ga.TotalBits() != gc.TotalBits() || !data.EqualMultiset(ga.Output, gc.Output) {
		t.Error("generic: prepared run differs from one-shot run")
	}
	if gp.NumPatterns() < 2 || gp.HeavyHitters() != ga.HeavyHitters {
		t.Errorf("generic plan accessors look wrong: %d patterns, %d heavy", gp.NumPatterns(), gp.HeavyHitters())
	}
}

// TestAddStatsChargesAccounting asserts the cached-vs-charged seam: merging
// a StatsResult must list its round first, so it adds to the rounds and the
// bits, takes part in the load max, the replication and the abort flag —
// exactly what RunStarSampled does inline — and leave the (shared, cached)
// StatsResult and the record's seconds as they were.
func TestAddStatsChargesAccounting(t *testing.T) {
	rec := &engine.RunRecord{
		Rounds:    []engine.RoundStats{{Name: "data", MaxRecvBits: 100, TotalRecvBits: 1000}},
		InputBits: 500, ComputeSeconds: 1,
	}
	st := &StatsResult{Round: engine.RoundStats{Name: "stats", MaxRecvBits: 250, TotalRecvBits: 300, Aborted: true}}
	AddStatsCharges(rec, st)
	if len(rec.Rounds) != 2 || rec.Rounds[0].Name != "stats" || rec.Rounds[1].Name != "data" {
		t.Errorf("rounds = %+v, want the statistics round before the data round", rec.Rounds)
	}
	if rec.TotalBits() != 1300 {
		t.Errorf("total = %v, want 1300", rec.TotalBits())
	}
	if rec.MaxLoadBits() != 250 {
		t.Errorf("max load = %v, want 250 (stats round dominates)", rec.MaxLoadBits())
	}
	if rec.ReplicationRate() != 1300.0/500 {
		t.Errorf("replication = %v, want %v", rec.ReplicationRate(), 1300.0/500)
	}
	if !rec.Aborted() {
		t.Error("abort flag not joined")
	}
	if rec.ComputeSeconds != 1 {
		t.Errorf("compute seconds = %v, want 1: a charged round spent no time", rec.ComputeSeconds)
	}
	rec.Rounds[0].MaxRecvBits = 0
	if st.Round.MaxRecvBits != 250 {
		t.Error("the record aliases the cached statistics round")
	}
}

// TestStarStatsSpecDeterministic asserts the spec derivation and protocol
// run are deterministic — the property that makes the stats cache sound.
func TestStarStatsSpecDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := query.Star(2)
	db := data.SkewedStarDatabase(rng, 2, 400, 1<<16, map[int64]int{7: 50})
	spec := StarStatsSpec(q, db, 16)
	st1 := spec.Run(16, 100, 42, 0)
	st2 := StarStatsSpec(q, db, 16).Run(16, 100, 42, 0)
	if st1.Round != st2.Round {
		t.Error("stats protocol not deterministic for fixed inputs")
	}
	if len(st1.PerAtom) != len(st2.PerAtom) {
		t.Fatal("estimate shapes differ")
	}
	for j := range st1.PerAtom {
		if len(st1.PerAtom[j]) != len(st2.PerAtom[j]) {
			t.Fatalf("atom %d: %d vs %d estimates", j, len(st1.PerAtom[j]), len(st2.PerAtom[j]))
		}
		for v, c := range st1.PerAtom[j] {
			if st2.PerAtom[j][v] != c {
				t.Fatalf("atom %d value %d: %d vs %d", j, v, c, st2.PerAtom[j][v])
			}
		}
	}
}

// ---- plan equivalence against a map-based reference ------------------------

// refCounts is the reference's frequency table: one map entry per distinct
// value of the column, the way every Prepare* counted before the columnar
// sort-and-count pass.
func refCounts(rel *data.Relation, col int) map[int64]int {
	freq := map[int64]int{}
	for i := 0; i < rel.NumTuples(); i++ {
		freq[rel.At(i, col)]++
	}
	return freq
}

// refPrepareStar hands the frequency path (PrepareStarWithFrequencies:
// StarStatsSpec's z columns) the full frequency maps.
func refPrepareStar(q *query.Query, db *data.Database, p int) *GenericPlan {
	freqs := make([]map[int64]int, q.NumAtoms())
	for j, a := range q.Atoms {
		freqs[j] = refCounts(db.Get(a.Name), colOf(a, q.Atoms[0].Vars[0]))
	}
	return PrepareStarWithFrequencies(q, db, p, freqs)
}

// refGenericHeavy is genericHeavy from full maps — a value of variable v is
// heavy iff its count in some column of v reaches max(2, ⌊m_j/light[v]⌋) —
// the cut to maxHeavyPerVar by (bits descending, value ascending) included,
// a value's bits being its largest count over v's columns times the tuple
// width. Then, while the heavy sets span more than maxPatterns patterns, it
// drops the lightest heavy value left, across variables, in the order (bits
// descending, value ascending, variable ascending). It also returns every
// column's full counts.
func refGenericHeavy(q *query.Query, db *data.Database, light []int, maxHeavyPerVar int) ([]map[int64]bool, [][]map[int64]int) {
	heavy := make([]map[int64]bool, q.NumVars())
	freqBits := make([]map[int64]float64, q.NumVars())
	counts := make([][]map[int64]int, q.NumAtoms())
	for j, a := range q.Atoms {
		counts[j] = make([]map[int64]int, a.Arity())
		for c := range a.Vars {
			counts[j][c] = refCounts(db.Get(a.Name), c)
		}
	}
	bpv := data.BitsPerValue(db.N)
	for i, v := range q.Vars() {
		heavy[i], freqBits[i] = map[int64]bool{}, map[int64]float64{}
		for _, j := range q.AtomsOf(v) {
			atom := q.Atoms[j]
			rel := db.Get(atom.Name)
			for val, c := range counts[j][colOf(atom, v)] {
				freqBits[i][val] = max(freqBits[i][val], float64(c)*float64(atom.Arity()*bpv))
				if c >= max(2, rel.NumTuples()/light[i]) {
					heavy[i][val] = true
				}
			}
		}
		if len(heavy[i]) > maxHeavyPerVar {
			vals := make([]int64, 0, len(heavy[i]))
			for val := range heavy[i] {
				vals = append(vals, val)
			}
			sort.Slice(vals, func(a, b int) bool {
				if ba, bb := freqBits[i][vals[a]], freqBits[i][vals[b]]; ba != bb {
					return ba > bb
				}
				return vals[a] < vals[b]
			})
			heavy[i] = map[int64]bool{}
			for _, val := range vals[:maxHeavyPerVar] {
				heavy[i][val] = true
			}
		}
	}
	type hv struct {
		v   int
		val int64
	}
	var kept []hv
	for i := range heavy {
		for val := range heavy[i] {
			kept = append(kept, hv{i, val})
		}
	}
	sort.Slice(kept, func(a, b int) bool {
		x, y := kept[a], kept[b]
		if bx, by := freqBits[x.v][x.val], freqBits[y.v][y.val]; bx != by {
			return bx > by
		}
		if x.val != y.val {
			return x.val < y.val
		}
		return x.v < y.v
	})
	patterns := func() int {
		n := 1
		for i := range heavy {
			n *= 1 + len(heavy[i])
		}
		return n
	}
	for ; patterns() > maxPatterns; kept = kept[:len(kept)-1] {
		last := kept[len(kept)-1]
		delete(heavy[last.v], last.val)
	}
	return heavy, counts
}

// sameHeavyCounts fails t unless counts holds wantCounts' count of every
// heavy value in every column of its variable.
func sameHeavyCounts(t *testing.T, q *query.Query, heavy []map[int64]bool, counts, wantCounts [][]map[int64]int) {
	t.Helper()
	for j, a := range q.Atoms {
		for c, v := range a.Vars {
			for val := range heavy[q.VarIndex(v)] {
				if counts[j][c][val] != wantCounts[j][c][val] {
					t.Fatalf("atom %d column %d value %d: count %d, map reference %d", j, c, val, counts[j][c][val], wantCounts[j][c][val])
				}
			}
		}
	}
}

// denseBipartiteTriDB makes every relation of C3 the complete 8×8 bipartite
// graph on its own value blocks (64 tuples each). At p = 512 the skew-free
// shares are 8/8/8, so every value reaches the cut 64/8 = 8, and each
// variable has 16 heavy values: 17³ = 4913 patterns, above maxPatterns.
func denseBipartiteTriDB() *data.Database {
	db := data.NewDatabase(1 << 8)
	for j, a := range query.Triangle().Atoms {
		r := data.NewRelation(a.Name, 2)
		for x := int64(0); x < 8; x++ {
			for y := int64(0); y < 8; y++ {
				r.Append(int64(16*j)+x, int64(16*j+8)+y)
			}
		}
		db.Add(r)
	}
	return db
}

// TestGenericHeavyTrimMatchesMapReference pins which heavy values the
// pattern trim keeps: on the dense bipartite C3 at p = 512, where the 48
// heavy values span 4913 patterns, genericHeavy must keep exactly the
// values refGenericHeavy keeps, and the plan must be the reference's.
func TestGenericHeavyTrimMatchesMapReference(t *testing.T) {
	const p = 512
	q := query.Triangle()
	db := denseBipartiteTriDB()
	light := patternShares(q, nil, statsFor(q, db, nil, nil), p)
	counts := exactCounts(q, db, light)
	heavy := genericHeavy(q, db, light, counts, math.MaxInt)
	wantHeavy, wantCounts := refGenericHeavy(q, db, light, math.MaxInt)
	if !reflect.DeepEqual(heavy, wantHeavy) {
		t.Fatalf("heavy sets %v, map reference %v", heavy, wantHeavy)
	}
	sameHeavyCounts(t, q, heavy, counts, wantCounts)
	n, patterns := 0, 1
	for i := range heavy {
		n += len(heavy[i])
		patterns *= 1 + len(heavy[i])
	}
	if n >= 48 || patterns > maxPatterns {
		t.Fatalf("%d heavy values on %d patterns: the trim did not fire, or left more than %d patterns", n, patterns, maxPatterns)
	}
	got, want := PrepareGeneric(q, db, p, math.MaxInt), newGenericPlan(q, db, p, light, wantHeavy, wantCounts)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("plan differs from the map reference: %d patterns on %d servers, want %d on %d",
			got.NumPatterns(), got.ServersUsed(), want.NumPatterns(), want.ServersUsed())
	}
	t.Logf("kept %d of 48 heavy values: %d patterns", n, patterns)
}

// unevenDB fills q's binary atoms with relations of 300, 3000 and 900 tuples
// (by atom index), so that the heavy floors m_j/div[v] of a variable's
// relations differ by up to 10×. Every column of a variable v with
// div[v] > 1 plants the values 1…planted with counts scattered around its
// own relation's floor — value 1 in its upper half — and is shuffled on its
// own; a column with div[v] = 1 plants nothing (its floor is the whole
// column). A value is then often heavy through the small relation only while
// the large one, where it is light, holds more copies of it: the case in
// which thresholding each column separately reports the wrong maximum.
// (Stars plant fewer and smaller hitters: their output is the product of a
// value's counts over all atoms.)
func unevenDB(q *query.Query, rng *rand.Rand, div []int, planted int64) *data.Database {
	const n = 1 << 16
	db := data.NewDatabase(n)
	for j, a := range q.Atoms {
		m := []int{300, 3000, 900}[j%3]
		cols := make([][]int64, 2)
		for c := range cols {
			d := div[q.VarIndex(a.Vars[c])]
			col := make([]int64, 0, m)
			for v := int64(1); v <= planted && d > 1; v++ {
				cnt := rng.Intn(m * 13 / (10 * d))
				if v == 1 {
					cnt = m*6/(10*d) + rng.Intn(m*7/(10*d))
				}
				for ; cnt > 0 && len(col) < m; cnt-- {
					col = append(col, v)
				}
			}
			for len(col) < m {
				col = append(col, 100+rng.Int63n(n-100))
			}
			rng.Shuffle(m, func(x, y int) { col[x], col[y] = col[y], col[x] })
			cols[c] = col
		}
		r := data.NewRelation(a.Name, 2)
		r.AppendColumns(cols, m)
		db.Add(r)
	}
	return db
}

// lightMaxima counts the (variable, value) pairs of a plan's heavy sets whose
// largest count sits in a column where it is below that column's floor (of
// the relation's size and the variable's index) — the pairs only an exact
// lookup in the other column gets right.
func lightMaxima(q *query.Query, db *data.Database, heavy []map[int64]bool, floor func(m, v int) float64) int {
	n := 0
	for i, v := range q.Vars() {
		for val := range heavy[i] {
			best, bestLight := 0, false
			for _, j := range q.AtomsOf(v) {
				rel := db.Get(q.Atoms[j].Name)
				if c := refCounts(rel, colOf(q.Atoms[j], v))[val]; c > best {
					best, bestLight = c, float64(c) < floor(rel.NumTuples(), i)
				}
			}
			if bestLight {
				n++
			}
		}
	}
	return n
}

// TestPlansMatchMapReference holds the sort-and-count preparation to the map
// code it replaced, over 60 seeds of relations with unequal sizes: the plans
// are deeply equal (heavy sets, block and pattern offsets, grids, routes),
// their accessors agree, and running them moves the same bits.
func TestPlansMatchMapReference(t *testing.T) {
	const p, starP, seeds, heavyCap = 16, 64, 60, 2
	sameRun := func(t *testing.T, got, want *engine.RunRecord) {
		t.Helper()
		if got.TotalBits() != want.TotalBits() || got.MaxLoadBits() != want.MaxLoadBits() ||
			got.HeavyHitters != want.HeavyHitters || got.ServersUsed != want.ServersUsed {
			t.Fatalf("run under the plan: %v/%v bits, %d heavy, %d servers; under the reference: %v/%v, %d, %d",
				got.TotalBits(), got.MaxLoadBits(), got.HeavyHitters, got.ServersUsed,
				want.TotalBits(), want.MaxLoadBits(), want.HeavyHitters, want.ServersUsed)
		}
	}
	// The skew-free C3 grid's shares depend only on the relation sizes,
	// which unevenDB fixes per atom index.
	tri := query.Triangle()
	light := patternShares(tri, nil, statsFor(tri, unevenDB(tri, rand.New(rand.NewSource(0)), []int{1, 1, 1}, 0), nil, nil), p)
	shareFloor := func(m, v int) float64 { return float64(heavyCut(m, light[v])) }
	var starLight, genLight, genCut int
	for seed := int64(1); seed <= seeds; seed++ {
		// The run is a pure function of the plan, compared in depth on every
		// seed; executing both on every fifth keeps the race job affordable.
		executed := seed%5 == 0
		for _, k := range []int{2, 3} {
			t.Run(fmt.Sprintf("star%d/seed=%d", k, seed), func(t *testing.T) {
				// Plant around z's own cut m_j/s_z only: the skew-free star
				// grid on these sizes has s_z < p, and a heavy x value would
				// be invisible to the z-frequency path. At starP = 4p servers
				// the hitters' residual products stay small enough to run.
				q := query.Star(k)
				div := make([]int, q.NumVars())
				for v := range div {
					div[v] = 1
				}
				div[0] = skewFreeShares(q, unevenDB(q, rand.New(rand.NewSource(0)), div, 0), starP)[0]
				db := unevenDB(q, rand.New(rand.NewSource(seed)), div, 3)
				got, want := PrepareGeneric(q, db, starP, math.MaxInt), refPrepareStar(q, db, starP)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("plan differs from the map reference: heavy %v at %d servers, want %v at %d",
						got.heavy, got.totalServers, want.heavy, want.totalServers)
				}
				if got.HeavyHitters() != want.HeavyHitters() || got.ServersUsed() != want.ServersUsed() {
					t.Fatal("plan accessors differ from the reference's")
				}
				if executed {
					sameRun(t, RunGenericPlannedNet(got, q, db, starP, seed, 0, engine.Env{}), RunGenericPlannedNet(want, q, db, starP, seed, 0, engine.Env{}))
				}
				starLight += lightMaxima(q, db, got.heavy, func(m, _ int) float64 { return float64(heavyCut(m, div[0])) })
			})
		}
		// The triangle front door (PrepareTriangle: the generic planner with
		// no heavy cap) and the generic planner at a cap that cuts.
		for _, c := range []struct {
			name     string
			heavyCap int
			prepare  func(q *query.Query, db *data.Database) *GenericPlan
		}{
			{"triangle", math.MaxInt, func(q *query.Query, db *data.Database) *GenericPlan { return PrepareTriangle(q, db, p) }},
			{"generic", heavyCap, func(q *query.Query, db *data.Database) *GenericPlan { return PrepareGeneric(q, db, p, heavyCap) }},
		} {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				q := tri
				db := unevenDB(q, rand.New(rand.NewSource(seed)), light, 5)
				counts := exactCounts(q, db, light)
				heavy := genericHeavy(q, db, light, counts, c.heavyCap)
				wantHeavy, wantCounts := refGenericHeavy(q, db, light, c.heavyCap)
				if !reflect.DeepEqual(heavy, wantHeavy) {
					t.Fatalf("heavy sets %v, map reference %v", heavy, wantHeavy)
				}
				sameHeavyCounts(t, q, heavy, counts, wantCounts)
				got, want := c.prepare(q, db), newGenericPlan(q, db, p, light, wantHeavy, wantCounts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("plan differs from the map reference: %d patterns on %d servers, want %d on %d",
						got.NumPatterns(), got.ServersUsed(), want.NumPatterns(), want.ServersUsed())
				}
				if got.HeavyHitters() != want.HeavyHitters() || got.ServersUsed() != want.ServersUsed() {
					t.Fatal("plan accessors differ from the reference's")
				}
				if executed {
					sameRun(t, RunGenericPlannedNet(got, q, db, p, seed, 0, engine.Env{}), RunGenericPlannedNet(want, q, db, p, seed, 0, engine.Env{}))
				}
				genLight += lightMaxima(q, db, heavy, shareFloor)
				uncut, _ := refGenericHeavy(q, db, light, math.MaxInt)
				for i := range uncut {
					if len(uncut[i]) > c.heavyCap {
						genCut++
					}
				}
			})
		}
	}
	// The instances must really contain what the test is for.
	t.Logf("light maxima: star %d, generic %d; cut %d", starLight, genLight, genCut)
	if starLight == 0 || genLight == 0 || genCut == 0 {
		t.Errorf("heavy values whose maximum sits where they are light: star %d, generic %d; heavy sets cut: %d — want all > 0",
			starLight, genLight, genCut)
	}
}
