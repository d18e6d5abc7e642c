package skew

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/hashing"
	"mpcquery/internal/localjoin/baseline"
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

// bruteRoute is the routing index's specification: a tuple of atom j
// belongs to sub-block i of a pattern iff every column of a variable the
// pattern pins holds a heavy value in the pinned bin and in sub-block i's
// group for the variable (the mixed-radix digits of i over the pattern's
// groups, the last variable fastest), every other column is light, and a
// pinned variable repeated in the atom holds one value in all its columns.
// A pinned variable the atom lacks constrains nothing. The sub-blocks are
// listed in layout order.
func (gp *GenericPlan) bruteRoute(j int, tuple []int64) []*hashing.Block {
	var out []*hashing.Block
	for _, pat := range gp.patterns {
		for i, blk := range pat.blocks {
			group := make([]int, len(pat.groups))
			for v, rest := len(group)-1, i; v >= 0; v-- {
				group[v], rest = rest%pat.groups[v], rest/pat.groups[v]
			}
			in := true
			dims := gp.atoms[j].dims
			for c, d := range dims {
				hv, heavy := gp.heavy[d][tuple[c]]
				if pat.pinned[d] < 0 {
					in = in && !heavy
				} else {
					in = in && heavy && hv.bin == 1+pat.pinned[d] && hv.rank%pat.groups[d] == group[d] &&
						tuple[c] == tuple[slices.Index(dims, d)]
				}
			}
			if in {
				out = append(out, blk)
			}
		}
	}
	return out
}

// heavySets returns the plan's heavy values per variable.
func (gp *GenericPlan) heavySets() []map[int64]bool {
	sets := make([]map[int64]bool, len(gp.heavy))
	for v, vals := range gp.heavy {
		sets[v] = map[int64]bool{}
		for val := range vals {
			sets[v][val] = true
		}
	}
	return sets
}

// binSizes returns, per variable, the number of heavy values in each bin.
func (gp *GenericPlan) binSizes() [][]int {
	sizes := make([][]int, len(gp.heavy))
	for v, vals := range gp.heavy {
		for _, hv := range vals {
			for len(sizes[v]) < hv.bin {
				sizes[v] = append(sizes[v], 0)
			}
			sizes[v][hv.bin-1]++
		}
	}
	return sizes
}

// TestGenericRouteIndexMatchesBruteForce pins the routing index to its
// specification: for every tuple of every relation, the sub-blocks the
// index routes it to must be exactly those bruteRoute accepts, in layout
// order. The input is the dense bipartite C3 with two more x1 values of
// degree 12 in S1 and S3, at p = 1024: x1 has two bins of eight values of
// degree 8 (one per relation) and a bin of the two heavier values, x2 and
// x3 one bin of eight each. The instance must cover both group branches on
// multi-value bins — every value tuple its own sub-block (p_B ≥ |H_B|), and
// fewer groups than values (p_B < |H_B|) — and a pattern pinning, with
// several groups, a variable the routed atom lacks.
func TestGenericRouteIndexMatchesBruteForce(t *testing.T) {
	q := query.Triangle()
	db := denseBipartiteTriDB()
	for _, name := range []string{"S1", "S3"} {
		rel := db.Get(name)
		for i := 0; i < 12; i++ {
			for _, x := range []int64{200, 201} {
				if name == "S1" {
					rel.Append(x, 210+int64(i))
				} else {
					rel.Append(220+int64(i), x)
				}
			}
		}
	}
	gp := PrepareGeneric(q, db, 1024)
	sizes := gp.binSizes()

	var perValue, grouped, fanned int // tuples routed into each kind of pattern
	ranks := make([]int, 2)
	for j, a := range q.Atoms {
		rel := db.Get(a.Name)
		for i := 0; i < rel.NumTuples(); i++ {
			tuple := rel.Tuple(i)
			indexed, brute := gp.route(nil, j, tuple, ranks), gp.bruteRoute(j, tuple)
			if !slices.Equal(indexed, brute) {
				t.Fatalf("atom %d tuple %v: index routes to %d sub-blocks, brute force to %d (or the order diverges)", j, tuple, len(indexed), len(brute))
			}
			for _, pat := range gp.patterns {
				if !slices.ContainsFunc(pat.blocks, func(b *hashing.Block) bool { return slices.Contains(brute, b) }) {
					continue
				}
				multi, split := false, false
				for v, b := range pat.pinned {
					if b >= 0 && sizes[v][b] > 1 {
						multi = true
						split = split || pat.groups[v] < sizes[v][b]
						if pat.groups[v] > 1 && !slices.Contains(gp.atoms[j].dims, v) {
							fanned++
						}
					}
				}
				switch {
				case split:
					grouped++
				case multi:
					perValue++
				}
			}
		}
	}
	t.Logf("%d patterns on %d servers; tuples into per-value patterns %d, grouped patterns %d, fanned out %d",
		gp.NumPatterns(), gp.ServersUsed(), perValue, grouped, fanned)
	if perValue == 0 || grouped == 0 || fanned == 0 {
		t.Errorf("the instance misses a case: per-value %d, grouped %d, fanned out %d — want all > 0", perValue, grouped, fanned)
	}
}

// TestGenericRepeatedVariableRoutes holds the route of an atom with a
// repeated variable, R(x, x) joined with S(x, y), to bruteRoute: R's tuples
// with two equal heavy values reach their patterns, and those mixing two
// heavy values, or a heavy and a light one, reach none, since every pattern
// wants both columns pinned to one value or both light. The output is the
// reference evaluator's.
func TestGenericRepeatedVariableRoutes(t *testing.T) {
	q := query.New("rep", query.Atom{Name: "R", Vars: []string{"x", "x"}}, query.Atom{Name: "S", Vars: []string{"x", "y"}})
	rng := rand.New(rand.NewSource(5))
	db := data.NewDatabase(1 << 16)
	r, sRel := data.NewRelation("R", 2), data.NewRelation("S", 2)
	for i := range 240 {
		sRel.Append(int64(1+i%4), 1000+rng.Int63n(1<<15))
		sRel.Append(1000+rng.Int63n(1<<15), 1000+rng.Int63n(1<<15))
	}
	for _, pair := range [][2]int64{{1, 1}, {2, 2}, {1, 2}, {3, 5000}, {5000, 3}, {5000, 5001}, {5002, 5002}} {
		for range 20 {
			r.Append(pair[0], pair[1])
		}
	}
	db.Add(r)
	db.Add(sRel)
	gp := PrepareGeneric(q, db, 16)
	if gp.HeavyHitters() == 0 {
		t.Fatal("no heavy value of x")
	}
	mixed, ranks := 0, make([]int, 2)
	for j, a := range q.Atoms {
		rel := db.Get(a.Name)
		for i := 0; i < rel.NumTuples(); i++ {
			tuple := rel.Tuple(i)
			indexed, brute := gp.route(nil, j, tuple, ranks), gp.bruteRoute(j, tuple)
			if !slices.Equal(indexed, brute) {
				t.Fatalf("atom %d tuple %v: index routes to %d sub-blocks, brute force to %d (or the order diverges)", j, tuple, len(indexed), len(brute))
			}
			if _, heavy := gp.heavy[0][tuple[0]]; j == 0 && tuple[0] != tuple[1] && heavy && len(indexed) == 0 {
				mixed++
			}
		}
	}
	if mixed == 0 {
		t.Error("no R tuple mixing a heavy value with another value was checked")
	}
	rec := RunGenericPlannedNet(gp, q, db, 3, 0, nil, engine.Env{})
	if want := baseline.Evaluate(q, map[string]*data.Relation{"R": r, "S": sRel}); !data.EqualMultiset(rec.Output, want) {
		t.Fatalf("output: %d tuples, reference %d", rec.Output.NumTuples(), want.NumTuples())
	}
}

// TestPlannedNetShimsCheckServers: the star and triangle shims take a p the
// plan already fixes, so they panic on any other value instead of ignoring
// it, and run the plan on the matching one.
func TestPlannedNetShimsCheckServers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct {
		name string
		run  func(*GenericPlan, *query.Query, *data.Database, int, int64, float64, engine.Env) *engine.RunRecord
		q    *query.Query
		db   *data.Database
	}{
		{"star", RunStarPlannedNet, query.Star(2), data.SkewedStarDatabase(rng, 2, 200, 1<<12, map[int64]int{7: 60})},
		{"triangle", RunTrianglePlannedNet, query.Triangle(), data.SkewedTriangleDatabase(rng, 200, 1<<12, 7, 60)},
	} {
		gp := PrepareGeneric(c.q, c.db, 16)
		for _, p := range []int{1, 8, 17} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: p=%d on a plan for 16 servers did not panic", c.name, p)
					}
				}()
				c.run(gp, c.q, c.db, p, 5, 0, engine.Env{})
			}()
		}
		got, want := c.run(gp, c.q, c.db, 16, 5, 0, engine.Env{}), RunGenericPlannedNet(gp, c.q, c.db, 5, 0, nil, engine.Env{})
		if got.TotalBits() != want.TotalBits() || !data.EqualMultiset(got.Output, want.Output) {
			t.Errorf("%s: p=16 differs from RunGenericPlannedNet", c.name)
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
	c := runGeneric(star, starDB, 16, 5)
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
	tc := runGeneric(tri, triDB, 16, 5)
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
	gp := PrepareGeneric(tri, genDB, 16)
	ga := RunGenericPlannedNet(gp, tri, genDB, 5, 0, nil, engine.Env{})
	gc := runGeneric(tri, genDB, 16, 5)
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
// StatsResult as it was.
func TestAddStatsChargesAccounting(t *testing.T) {
	rec := &engine.RunRecord{
		Rounds:    []engine.RoundStats{{Name: "data", MaxRecvBits: 100, TotalRecvBits: 1000}},
		InputBits: 500,
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

// refGenericHeavy picks the heavy values from full maps: a value of variable
// v is heavy iff its count in some column of v reaches
// max(2, ⌊m_j/light[v]⌋). It also returns every column's full counts.
func refGenericHeavy(q *query.Query, db *data.Database, light []int) ([]map[int64]bool, [][]map[int64]int) {
	heavy := make([]map[int64]bool, q.NumVars())
	counts := make([][]map[int64]int, q.NumAtoms())
	for j, a := range q.Atoms {
		counts[j] = make([]map[int64]int, a.Arity())
		for c := range a.Vars {
			counts[j][c] = refCounts(db.Get(a.Name), c)
		}
	}
	for i, v := range q.Vars() {
		heavy[i] = map[int64]bool{}
		for _, j := range q.AtomsOf(v) {
			atom := q.Atoms[j]
			for val, c := range counts[j][colOf(atom, v)] {
				if c >= max(2, db.Get(atom.Name).NumTuples()/light[i]) {
					heavy[i][val] = true
				}
			}
		}
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
// variable has 16 heavy values of one weight: 17³ = 4913 value patterns,
// but 2³ bin patterns.
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

// checkBins holds a plan's bins to their definition: two heavy values of a
// variable share a bin iff ⌊log₂⌋ of their fragments in bits agree in every
// column of the variable (a column without the value counting as its own
// class), a variable's bins are ordered by their smallest value, and a bin's
// values are ranked by (weight descending, value ascending), a value's
// weight being its largest fragment in bits. It returns the number of bins
// per variable.
func checkBins(t *testing.T, gp *GenericPlan, q *query.Query, db *data.Database, heavy []map[int64]bool, counts [][]map[int64]int) []int {
	t.Helper()
	bpv := data.BitsPerValue(db.N)
	nbins := make([]int, len(heavy))
	for v := range heavy {
		w, byBin := map[int64]float64{}, map[string][]int64{}
		for val := range heavy[v] {
			var key []int
			for j, a := range q.Atoms {
				for c, av := range a.Vars {
					if bits := float64(counts[j][c][val] * a.Arity() * bpv); q.VarIndex(av) == v {
						key = append(key, -1)
						if bits > 0 {
							key[len(key)-1] = int(math.Floor(math.Log2(bits)))
						}
						w[val] = max(w[val], bits)
					}
				}
			}
			byBin[fmt.Sprint(key)] = append(byBin[fmt.Sprint(key)], val)
		}
		var order [][]int64
		for _, vals := range byBin {
			slices.SortFunc(vals, func(x, y int64) int { return cmp.Or(cmp.Compare(w[y], w[x]), cmp.Compare(x, y)) })
			order = append(order, vals)
		}
		slices.SortFunc(order, func(x, y []int64) int { return cmp.Compare(slices.Min(x), slices.Min(y)) })
		want := map[int64]heavyVal{}
		for b, vals := range order {
			for r, val := range vals {
				want[val] = heavyVal{1 + b, r}
			}
		}
		if !reflect.DeepEqual(gp.heavy[v], want) {
			t.Fatalf("variable %d: bins and ranks %v, want %v", v, gp.heavy[v], want)
		}
		nbins[v] = len(order)
	}
	return nbins
}

// TestGenericDenseBinBounds holds the bin layout to its bounds on inputs
// with many heavy values: the heavy sets are the map reference's, uncut;
// the plan has at most Π_v (1+bins_v) patterns on at most 2p + NumPatterns
// servers (checkServers); the output is the reference evaluator's; and the
// load stays at or below oblivious HyperCube's on p servers. The rows are the
// dense bipartite C3 (48 heavy values at p = 512, none at p = 64) and a T2
// whose hitters have degrees 2^i·m/p, i = 0…4 (two each at i ≤ 1), which
// spread over several bins.
func TestGenericDenseBinBounds(t *testing.T) {
	type row struct {
		name  string
		q     *query.Query
		db    *data.Database
		p     int
		heavy int // heavy values the row must have
	}
	const m, starP = 4000, 64
	hitters := map[int64]int{}
	for i, n := range []int{2, 2, 1, 1, 1} {
		for c := range n {
			hitters[int64(10*i+c+1)] = m / starP << i
		}
	}
	star := data.SkewedStarDatabase(rand.New(rand.NewSource(7)), 2, m, 16*m, hitters)
	rows := []row{
		{"C3-dense", query.Triangle(), denseBipartiteTriDB(), 64, 0},
		{"C3-dense", query.Triangle(), denseBipartiteTriDB(), 512, 48},
		{"T2-spread", query.Star(2), star, starP, 7},
	}
	for _, r := range rows {
		t.Run(fmt.Sprintf("%s/p=%d", r.name, r.p), func(t *testing.T) {
			q, db, p := r.q, r.db, r.p
			light := skewFreeShares(q, db, p)
			gp := PrepareGeneric(q, db, p)
			heavy, wantCounts := refGenericHeavy(q, db, light)
			if got := gp.heavySets(); !reflect.DeepEqual(got, heavy) {
				t.Fatalf("heavy sets %v, map reference %v", got, heavy)
			}
			sameHeavyCounts(t, q, heavy, exactCounts(q, db, light), wantCounts)
			if gp.HeavyHitters() != r.heavy {
				t.Fatalf("%d heavy values, want %d", gp.HeavyHitters(), r.heavy)
			}
			bound := 1
			for _, n := range checkBins(t, gp, q, db, heavy, wantCounts) {
				bound *= 1 + n
			}
			if gp.NumPatterns() > bound {
				t.Errorf("%d patterns above Π(1+bins) = %d", gp.NumPatterns(), bound)
			}
			rec := RunGenericPlannedNet(gp, q, db, 7, 0, nil, engine.Env{})
			checkServers(t, rec, p, gp)
			rels := map[string]*data.Relation{}
			for _, a := range q.Atoms {
				rels[a.Name] = db.Get(a.Name)
			}
			if want := baseline.Evaluate(q, rels); !data.EqualMultiset(rec.Output, want) {
				t.Fatalf("output: %d tuples, reference %d", rec.Output.NumTuples(), want.NumTuples())
			}
			hc := core.Run(q, db, p, 7, core.SkewOblivious).MaxLoadBits()
			if got := rec.MaxLoadBits(); got > hc {
				t.Errorf("MaxLoadBits %v above oblivious HyperCube's %v", got, hc)
			}
			t.Logf("%d heavy values in bins %v: %d patterns on %d servers, MaxLoadBits %v (oblivious HyperCube %v)",
				gp.HeavyHitters(), checkBins(t, gp, q, db, heavy, wantCounts), gp.NumPatterns(), gp.ServersUsed(), rec.MaxLoadBits(), hc)
		})
	}
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
func lightMaxima[V any](q *query.Query, db *data.Database, heavy []map[int64]V, floor func(m, v int) float64) int {
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
// are deeply equal (heavy sets and bins, pattern and sub-block offsets,
// grids, routes), their accessors agree, and running them moves the same
// bits.
func TestPlansMatchMapReference(t *testing.T) {
	const p, starP, seeds = 16, 64, 60
	sameRun := func(t *testing.T, got, want *engine.RunRecord) {
		t.Helper()
		if got.TotalBits() != want.TotalBits() || got.MaxLoadBits() != want.MaxLoadBits() ||
			got.HeavyHitters != want.HeavyHitters || got.ServersUsed != want.ServersUsed {
			t.Fatalf("run under the plan: %v/%v bits, %d heavy, %d servers; under the reference: %v/%v, %d, %d",
				got.TotalBits(), got.MaxLoadBits(), got.HeavyHitters, got.ServersUsed,
				want.TotalBits(), want.MaxLoadBits(), want.HeavyHitters, want.ServersUsed)
		}
	}
	// The skew-free grid's shares depend only on the relation sizes, which
	// unevenDB fixes per atom index.
	tri := query.Triangle()
	skewFree := func(p int) []int {
		return skewFreeShares(tri, unevenDB(tri, rand.New(rand.NewSource(0)), []int{1, 1, 1}, 0), p)
	}
	var starLight, genLight, multiBins int
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
				got, want := PrepareGeneric(q, db, starP), refPrepareStar(q, db, starP)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("plan differs from the map reference: heavy %v at %d servers, want %v at %d",
						got.heavy, got.totalServers, want.heavy, want.totalServers)
				}
				if got.HeavyHitters() != want.HeavyHitters() || got.ServersUsed() != want.ServersUsed() {
					t.Fatal("plan accessors differ from the reference's")
				}
				if executed {
					sameRun(t, RunGenericPlannedNet(got, q, db, seed, 0, nil, engine.Env{}), RunGenericPlannedNet(want, q, db, seed, 0, nil, engine.Env{}))
				}
				starLight += lightMaxima(q, db, got.heavy, func(m, _ int) float64 { return float64(heavyCut(m, div[0])) })
			})
		}
		// The triangle front door (PrepareTriangle) at p, and the generic
		// planner at starP, where the cuts are lower and more values share
		// a bin.
		for _, c := range []struct {
			name    string
			p       int
			prepare func(q *query.Query, db *data.Database, p int) *GenericPlan
		}{
			{"triangle", p, PrepareTriangle},
			{"generic", starP, PrepareGeneric},
		} {
			t.Run(fmt.Sprintf("%s/seed=%d", c.name, seed), func(t *testing.T) {
				q, p, light := tri, c.p, skewFree(c.p)
				db := unevenDB(q, rand.New(rand.NewSource(seed)), light, 5)
				heavy, wantCounts := refGenericHeavy(q, db, light)
				got, want := c.prepare(q, db, p), newGenericPlan(q, db, p, light, wantCounts)
				if !reflect.DeepEqual(got.heavySets(), heavy) {
					t.Fatalf("heavy sets %v, map reference %v", got.heavySets(), heavy)
				}
				sameHeavyCounts(t, q, heavy, exactCounts(q, db, light), wantCounts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("plan differs from the map reference: %d patterns on %d servers, want %d on %d",
						got.NumPatterns(), got.ServersUsed(), want.NumPatterns(), want.ServersUsed())
				}
				if got.HeavyHitters() != want.HeavyHitters() || got.ServersUsed() != want.ServersUsed() {
					t.Fatal("plan accessors differ from the reference's")
				}
				if executed {
					sameRun(t, RunGenericPlannedNet(got, q, db, seed, 0, nil, engine.Env{}), RunGenericPlannedNet(want, q, db, seed, 0, nil, engine.Env{}))
				}
				genLight += lightMaxima(q, db, heavy, func(m, v int) float64 { return float64(heavyCut(m, light[v])) })
				for _, sizes := range got.binSizes() {
					for _, n := range sizes {
						if n > 1 {
							multiBins++
						}
					}
				}
			})
		}
	}
	// The instances must really contain what the test is for.
	t.Logf("light maxima: star %d, generic %d; bins of several values %d", starLight, genLight, multiBins)
	if starLight == 0 || genLight == 0 || multiBins == 0 {
		t.Errorf("heavy values whose maximum sits where they are light: star %d, generic %d; bins of several values: %d — want all > 0",
			starLight, genLight, multiBins)
	}
}
