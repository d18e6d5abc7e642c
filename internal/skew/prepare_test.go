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

// TestGenericRouteIndexMatchesBruteForce pins the routing index to its
// specification: for every tuple of every relation, the pattern list under
// the tuple's heavy/light signature must be exactly the patterns the
// brute-force matches() predicate accepts, in enumeration order.
func TestGenericRouteIndexMatchesBruteForce(t *testing.T) {
	q := query.Triangle()
	db := skewedTriDB(7, 400, 1<<16, 4, 30)
	gp := PrepareGeneric(q, db, 16, 6)

	checked := 0
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
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no tuples checked")
	}
}

// TestPreparedRunsMatchUnprepared asserts the prepare/execute split is pure
// refactoring: running a prepared plan twice and the one-shot entry points
// produce identical results, and a prepared plan is reusable.
func TestPreparedRunsMatchUnprepared(t *testing.T) {
	n := int64(1 << 16)
	rng := rand.New(rand.NewSource(3))

	star := query.Star(2)
	starDB := data.SkewedStarDatabase(rng, 2, 500, n, map[int64]int{7: 60, 9: 40})
	sp := PrepareStar(star, starDB, 16)
	a := RunStarPlannedNet(sp, star, starDB, 16, 5, 0, engine.Env{})
	b := RunStarPlannedNet(sp, star, starDB, 16, 5, 0, engine.Env{})
	c := RunStar(star, starDB, 16, 5)
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
	tc := RunTriangle(tri, triDB, 16, 5)
	if ta.MaxLoadBits() != tc.MaxLoadBits() || ta.TotalBits() != tc.TotalBits() || !data.EqualMultiset(ta.Output, tc.Output) {
		t.Error("triangle: prepared run differs from one-shot run")
	}
	if tp.HeavyHitters() != ta.HeavyHitters || tp.ServersUsed() != ta.ServersUsed {
		t.Error("triangle plan accessors disagree with the run")
	}

	genDB := skewedTriDB(11, 400, n, 3, 30)
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

// refPrepareStar hands PrepareStarWithFrequencies the full frequency maps.
func refPrepareStar(q *query.Query, db *data.Database, p int) *StarPlan {
	freqs := make([]map[int64]int, q.NumAtoms())
	for j, a := range q.Atoms {
		freqs[j] = refCounts(db.Get(a.Name), colOf(a, q.Atoms[0].Vars[0]))
	}
	return PrepareStarWithFrequencies(q, db, p, freqs)
}

// refTriangleHeavy is triangleHeavy from full maps: every value of every
// column classified, the maximum kept over the variable's two relations.
func refTriangleHeavy(q *query.Query, db *data.Database, p int) (freq []map[int64]int, pHeavy, cubeHeavy []map[int64]bool) {
	freq = make([]map[int64]int, 3)
	pHeavy = make([]map[int64]bool, 3)
	cubeHeavy = make([]map[int64]bool, 3)
	for i, v := range q.Vars() {
		freq[i], pHeavy[i], cubeHeavy[i] = map[int64]int{}, map[int64]bool{}, map[int64]bool{}
		for _, j := range q.AtomsOf(v) {
			rel := db.Get(q.Atoms[j].Name)
			m := float64(rel.NumTuples())
			for val, c := range refCounts(rel, colOf(q.Atoms[j], v)) {
				freq[i][val] = max(freq[i][val], c)
				if float64(c) >= math.Max(2, m/float64(p)) {
					pHeavy[i][val] = true
				}
				if float64(c) >= math.Max(2, m/math.Cbrt(float64(p))) {
					cubeHeavy[i][val] = true
				}
			}
		}
	}
	return freq, pHeavy, cubeHeavy
}

// refGenericHeavy is genericHeavy from full maps, the cut to maxHeavyPerVar
// by (bits descending, value ascending) included.
func refGenericHeavy(q *query.Query, db *data.Database, p, maxHeavyPerVar int) ([]map[int64]bool, []map[int64]float64) {
	heavy := make([]map[int64]bool, q.NumVars())
	freqBits := make([]map[int64]float64, q.NumVars())
	bpv := data.BitsPerValue(db.N)
	for i, v := range q.Vars() {
		heavy[i], freqBits[i] = map[int64]bool{}, map[int64]float64{}
		for _, j := range q.AtomsOf(v) {
			atom := q.Atoms[j]
			rel := db.Get(atom.Name)
			for val, c := range refCounts(rel, colOf(atom, v)) {
				freqBits[i][val] = max(freqBits[i][val], float64(c)*float64(atom.Arity()*bpv))
				if float64(c) >= math.Max(2, float64(rel.NumTuples())/float64(p)) {
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
	return heavy, freqBits
}

// unevenDB fills q's binary atoms with relations of 300, 3000 and 900 tuples
// (by atom index), so that the heavy floors m/p and m/p^(1/3) of a
// variable's relations differ by up to 10×. Every column plants the values
// 1…planted with counts scattered around its own relation's floor — value 1
// in its upper half or, with cube set, on every other draw around the cube
// floor instead — and is shuffled on its own. A value is then often heavy through the small
// relation only while the large one, where it is light, holds more copies of
// it: the case in which thresholding each column separately reports the
// wrong maximum. (Stars plant fewer and smaller hitters: their output is the
// product of a value's counts over all atoms.)
func unevenDB(q *query.Query, rng *rand.Rand, p int, planted int64, cube bool) *data.Database {
	const n = 1 << 16
	db := data.NewDatabase(n)
	for j, a := range q.Atoms {
		m := []int{300, 3000, 900}[j%3]
		cols := make([][]int64, 2)
		for c := range cols {
			col := make([]int64, 0, m)
			for v := int64(1); v <= planted; v++ {
				cnt := rng.Intn(m * 13 / (10 * p))
				if v == 1 {
					cnt = m*6/(10*p) + rng.Intn(m*7/(10*p))
				}
				if cube && v == 1 && rng.Intn(2) == 0 {
					cnt = int(float64(m)/math.Cbrt(float64(p))) - 5 + rng.Intn(40)
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
// largest count sits in a column where the value is below that column's
// floor — the pairs only an exact lookup in the other column gets right.
func lightMaxima(q *query.Query, db *data.Database, heavy []map[int64]bool, floor func(m int) float64) int {
	n := 0
	for i, v := range q.Vars() {
		for val := range heavy[i] {
			best, bestLight := 0, false
			for _, j := range q.AtomsOf(v) {
				rel := db.Get(q.Atoms[j].Name)
				if c := refCounts(rel, colOf(q.Atoms[j], v))[val]; c > best {
					best, bestLight = c, float64(c) < floor(rel.NumTuples())
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
	const p, seeds, heavyCap = 16, 60, 2
	sameRun := func(t *testing.T, got, want *engine.RunRecord) {
		t.Helper()
		if got.TotalBits() != want.TotalBits() || got.MaxLoadBits() != want.MaxLoadBits() ||
			got.HeavyHitters != want.HeavyHitters || got.ServersUsed != want.ServersUsed {
			t.Fatalf("run under the plan: %v/%v bits, %d heavy, %d servers; under the reference: %v/%v, %d, %d",
				got.TotalBits(), got.MaxLoadBits(), got.HeavyHitters, got.ServersUsed,
				want.TotalBits(), want.MaxLoadBits(), want.HeavyHitters, want.ServersUsed)
		}
	}
	pFloor := func(m int) float64 { return math.Max(2, float64(m)/p) }
	var starLight, triLight, genLight, genCut int
	for seed := int64(1); seed <= seeds; seed++ {
		// The run is a pure function of the plan, compared in depth on every
		// seed; executing both on every fifth keeps the race job affordable.
		executed := seed%5 == 0
		for _, k := range []int{2, 3} {
			t.Run(fmt.Sprintf("star%d/seed=%d", k, seed), func(t *testing.T) {
				q := query.Star(k)
				db := unevenDB(q, rand.New(rand.NewSource(seed)), p, 3, false)
				got, want := PrepareStar(q, db, p), refPrepareStar(q, db, p)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("plan differs from the map reference: heavy %v at %d servers, want %v at %d",
						got.heavy, got.totalServers, want.heavy, want.totalServers)
				}
				if got.HeavyHitters() != want.HeavyHitters() || got.ServersUsed() != want.ServersUsed() {
					t.Fatal("plan accessors differ from the reference's")
				}
				if executed {
					sameRun(t, RunStarPlannedNet(got, q, db, p, seed, 0, engine.Env{}), RunStarPlannedNet(want, q, db, p, seed, 0, engine.Env{}))
				}
				heavy := make([]map[int64]bool, q.NumVars()) // only z has heavy values
				heavy[0] = map[int64]bool{}
				for _, h := range got.heavy {
					heavy[0][h] = true
				}
				starLight += lightMaxima(q, db, heavy, pFloor)
			})
		}
		t.Run(fmt.Sprintf("triangle/seed=%d", seed), func(t *testing.T) {
			q := query.Triangle()
			db := unevenDB(q, rand.New(rand.NewSource(seed)), p, 5, true)
			freq, pHeavy, cubeHeavy := triangleHeavy(q, db, p)
			wantFreq, wantP, wantCube := refTriangleHeavy(q, db, p)
			if !reflect.DeepEqual(pHeavy, wantP) || !reflect.DeepEqual(cubeHeavy, wantCube) {
				t.Fatalf("p-heavy %v, cube-heavy %v; map reference %v, %v", pHeavy, cubeHeavy, wantP, wantCube)
			}
			for i := range cubeHeavy {
				for val := range cubeHeavy[i] {
					if freq[i][val] != wantFreq[i][val] {
						t.Fatalf("variable %d value %d: frequency %d, map reference %d", i, val, freq[i][val], wantFreq[i][val])
					}
				}
			}
			relTuples := make([]int, 3)
			for j, a := range q.Atoms {
				relTuples[j] = db.Get(a.Name).NumTuples()
			}
			got, want := PrepareTriangle(q, db, p), &TrianglePlan{pHeavy: wantP, cubeHeavy: wantCube,
				layout: newTriLayout(q, p, wantFreq, wantCube, data.BitsPerValue(db.N), relTuples)}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("plan differs from the map reference: %d servers, want %d", got.ServersUsed(), want.ServersUsed())
			}
			if got.HeavyHitters() != want.HeavyHitters() || got.ServersUsed() != want.ServersUsed() {
				t.Fatal("plan accessors differ from the reference's")
			}
			if executed {
				sameRun(t, RunTrianglePlannedNet(got, q, db, p, seed, 0, engine.Env{}), RunTrianglePlannedNet(want, q, db, p, seed, 0, engine.Env{}))
			}
			triLight += lightMaxima(q, db, got.cubeHeavy, pFloor)
		})
		t.Run(fmt.Sprintf("generic/seed=%d", seed), func(t *testing.T) {
			q := query.Triangle()
			db := unevenDB(q, rand.New(rand.NewSource(seed)), p, 5, true)
			heavy, freqBits := genericHeavy(q, db, p, heavyCap)
			wantHeavy, wantBits := refGenericHeavy(q, db, p, heavyCap)
			if !reflect.DeepEqual(heavy, wantHeavy) {
				t.Fatalf("heavy sets %v, map reference %v", heavy, wantHeavy)
			}
			for i := range heavy {
				for val := range heavy[i] {
					if freqBits[i][val] != wantBits[i][val] {
						t.Fatalf("variable %d value %d: %v fragment bits, map reference %v", i, val, freqBits[i][val], wantBits[i][val])
					}
				}
			}
			got, want := PrepareGeneric(q, db, p, heavyCap), newGenericPlan(q, db, p, wantHeavy, wantBits)
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
			genLight += lightMaxima(q, db, heavy, pFloor)
			uncut, _ := refGenericHeavy(q, db, p, math.MaxInt)
			for i := range uncut {
				if len(uncut[i]) > heavyCap {
					genCut++
				}
			}
		})
	}
	// The instances must really contain what the test is for.
	t.Logf("light maxima: star %d, triangle %d, generic %d; cut %d", starLight, triLight, genLight, genCut)
	if starLight == 0 || triLight == 0 || genLight == 0 || genCut == 0 {
		t.Errorf("heavy values whose maximum sits where they are light: star %d, triangle %d, generic %d; heavy sets cut: %d — want all > 0",
			starLight, triLight, genLight, genCut)
	}
}
