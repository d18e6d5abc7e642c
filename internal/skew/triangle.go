package skew

import (
	"math"
	"slices"
	"sort"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/hashing"
	"mpcquery/internal/localjoin"
	"mpcquery/internal/packing"
	"mpcquery/internal/query"
)

// The triangle algorithm of Section 4.2.2 computes
// C3 = S1(x1,x2), S2(x2,x3), S3(x3,x1) in one round, splitting the output
// triangles (a1,a2,a3) into three disjoint classes by the frequencies of
// their values (a value is counted in both relations adjacent to its
// variable):
//
//   - light: all three values are cube-light (frequency < m/p^{1/3})
//     → vanilla HyperCube with shares p^{1/3};
//   - case 1: at least two values are p-heavy (frequency ≥ m/p)
//     → per adjacent heavy pair, broadcast the (≤ |H|²) heavy-heavy tuples
//     of the spanning relation and hash-join the other two on the third
//     variable;
//   - case 2: exactly one value is cube-heavy, the others p-light
//     → per heavy value h, a dedicated block computes the residual query
//     R'(y), S(y,z), T'(z) with HyperCube shares from the share LP.
//
// The classes are disjoint by construction, so no output deduplication is
// required (and tests assert none happens).

// RunTriangle computes C3 over db with a budget of p servers.
// q must be query.Triangle() (atoms S1(x1,x2), S2(x2,x3), S3(x3,x1)).
func RunTriangle(q *query.Query, db *data.Database, p int, seed int64) *engine.RunRecord {
	return RunTrianglePlannedNet(PrepareTriangle(q, db, p), q, db, p, seed, 0, engine.Env{})
}

// TrianglePlan is the reusable, seed-independent part of a triangle run:
// per-variable frequency and heavy-hitter classifications plus the full
// server layout (light grid, case-1 groups, case-2 pivot blocks). It is
// immutable after preparation and safe for concurrent RunTrianglePlannedNet
// calls, so a service can compute it once per database and replay it.
type TrianglePlan struct {
	pHeavy    []map[int64]bool
	cubeHeavy []map[int64]bool
	layout    *triLayout
}

// HeavyHitters returns the number of cube-heavy values across variables.
func (tp *TrianglePlan) HeavyHitters() int {
	n := 0
	for i := range tp.cubeHeavy {
		n += len(tp.cubeHeavy[i])
	}
	return n
}

// ServersUsed returns the total servers the layout spans.
func (tp *TrianglePlan) ServersUsed() int { return tp.layout.totalServers }

// PrepareTriangle computes the frequency statistics and server layout of the
// Section 4.2.2 algorithm — the statistics phase of RunTriangle, split out
// so its result can be cached across queries on the same database.
func PrepareTriangle(q *query.Query, db *data.Database, p int) *TrianglePlan {
	freq, pHeavy, cubeHeavy := triangleHeavy(q, db, p)
	relTuples := make([]int, 3)
	for j, a := range q.Atoms {
		relTuples[j] = db.Get(a.Name).NumTuples()
	}
	return &TrianglePlan{
		pHeavy:    pHeavy,
		cubeHeavy: cubeHeavy,
		layout:    newTriLayout(q, p, freq, cubeHeavy, data.BitsPerValue(db.N), relTuples),
	}
}

// triangleHeavy classifies the values of every variable, counted in both
// relations adjacent to it: the p-heavy set (frequency ≥ m/p in either), the
// cube-heavy set (≥ m/p^{1/3}), and every cube-heavy value's larger frequency
// of the two.
func triangleHeavy(q *query.Query, db *data.Database, p int) (freq []map[int64]int, pHeavy, cubeHeavy []map[int64]bool) {
	vars := q.Vars()
	if q.NumAtoms() != 3 || len(vars) != 3 {
		panic("skew: RunTriangle requires the triangle query")
	}
	for _, v := range vars {
		if len(q.AtomsOf(v)) != 2 {
			panic("skew: RunTriangle requires the triangle query")
		}
	}
	// The six (variable, adjacent relation) columns, sorted concurrently; only
	// runs of at least m/p — at most p per column — reach a table.
	var sorted [3][2][]int64
	engine.ParallelFor(6, func(n int) {
		v := vars[n/2]
		a := q.Atoms[q.AtomsOf(v)[n%2]]
		sorted[n/2][n%2] = data.SortedColumn(db.Get(a.Name), colOf(a, v))
	})
	freq = make([]map[int64]int, 3)
	pHeavy = make([]map[int64]bool, 3)
	cubeHeavy = make([]map[int64]bool, 3)
	for i := range vars {
		freq[i] = make(map[int64]int)
		pHeavy[i] = make(map[int64]bool)
		cubeHeavy[i] = make(map[int64]bool)
		for a, col := range sorted[i] {
			pThr := math.Max(2, float64(len(col))/float64(p))
			cubeThr := math.Max(2, float64(len(col))/math.Cbrt(float64(p)))
			for _, run := range data.Runs(col, int(math.Ceil(pThr))) {
				pHeavy[i][run.Value] = true
				if float64(run.Count) >= cubeThr {
					cubeHeavy[i][run.Value] = true
					// The other relation may hold the larger fiber of a value
					// that is light there (relation sizes differ): look it up.
					freq[i][run.Value] = max(run.Count, data.CountOf(sorted[i][1-a], run.Value))
				}
			}
		}
	}
	return freq, pHeavy, cubeHeavy
}

// RunTrianglePlannedNet executes the triangle data round under a prepared
// layout; see RunStarPlannedNet for the caching contract (bit-identical to
// the unprepared path), the cap and env.
func RunTrianglePlannedNet(tp *TrianglePlan, q *query.Query, db *data.Database, p int, seed int64, capBits float64, env engine.Env) *engine.RunRecord {
	pHeavy, cubeHeavy, layout := tp.pHeavy, tp.cubeHeavy, tp.layout
	bpv := data.BitsPerValue(db.N)
	cluster := engine.NewClusterEnv(env, layout.totalServers, bpv)
	defer cluster.Release()
	if capBits > 0 {
		cluster.SetLoadCap(capBits)
	}
	cluster.SeedPartitioned(p, q, db)

	family := hashing.NewFamily(seed, 3)
	isPHeavy := func(varIdx int, v int64) bool { return pHeavy[varIdx][v] }
	isCubeLight := func(varIdx int, v int64) bool { return !cubeHeavy[varIdx][v] }

	cluster.Round("skew-triangle", func(s int, inbox *engine.Inbox, emit *engine.Emitter) {
		inbox.EachBatch(func(bt engine.Batch) {
			j := bt.Kind
			i0, i1 := layout.atomDims[j][0], layout.atomDims[j][1]
			for off := 0; off < len(bt.Vals); off += bt.Arity {
				tuple := bt.Vals[off : off+bt.Arity]
				v0, v1 := tuple[0], tuple[1]

				// Light: both values cube-light -> vanilla HC.
				if isCubeLight(i0, v0) && isCubeLight(i1, v1) {
					emit.EmitRouted(layout.light, family, j, tuple)
				}

				// Case 1 groups.
				for _, g := range layout.case1 {
					g.route(j, tuple, i0, i1, v0, v1, isPHeavy, family, emit)
				}

				// Case 2 pivot blocks.
				for _, pb := range layout.pivots {
					if pb != nil {
						pb.route(j, tuple, i0, i1, v0, v1, isPHeavy, family, emit)
					}
				}
			}
		})
	})

	// Local evaluation with per-group output predicates.
	out := localjoin.Output(cluster, q, env, layout.blocks, func(s int) func([]int64) bool {
		return layout.keep(s, pHeavy)
	})

	rec := cluster.Record(out, inputBits(q, db))
	rec.HeavyHitters = tp.HeavyHitters()
	return rec
}

// ---- server layout -------------------------------------------------------

type triLayout struct {
	totalServers int
	atomDims     [][]int // atom j -> variable index of each column
	light        *hashing.Block
	case1        []*case1Group
	pivots       [3]*pivotBlocks
	blocks       hashing.Layout // light, case-1 groups, pivot blocks
}

// case1Group handles triangles whose heavy pair is the two variables of
// relation span by broadcasting span's heavy-heavy tuples and hash-joining
// the other two relations on joinVar, the third variable. Its block's
// grid has the whole share p on joinVar: span's route hashes no dimension of
// share above 1, so it reaches every server of the group in order, and the
// other two atoms' routes land on the bin of their joinVar value.
type case1Group struct {
	block      *hashing.Block
	span       int // atom index broadcast (both vars p-heavy)
	joinVar    int // the third variable: both other relations hashed on it
	excludeVar int // predicate: this variable must NOT be p-heavy (-1 if none)
}

func (g *case1Group) route(j int, tuple []int64, i0, i1 int, v0, v1 int64,
	isPHeavy func(int, int64) bool, family *hashing.Family, emit *engine.Emitter) {
	if j == g.span {
		if isPHeavy(i0, v0) && isPHeavy(i1, v1) {
			emit.EmitRouted(g.block, family, j, tuple)
		}
		return
	}
	// The other two relations each contain joinVar in one column and one of
	// the heavy variables in the other; route when the heavy-side value is
	// p-heavy, hashed on joinVar.
	heavyVar, heavyVal := i0, v0
	switch {
	case i0 == g.joinVar:
		heavyVar, heavyVal = i1, v1
	case i1 != g.joinVar:
		return
	}
	if isPHeavy(heavyVar, heavyVal) {
		emit.EmitRouted(g.block, family, j, tuple)
	}
}

// pivotBlocks holds the case-2 blocks for one pivot variable: one HyperCube
// block per cube-heavy value of the pivot, over the three variables with
// share 1 on the pivot. The two pivot-adjacent atoms fix their other
// variable and replicate along the third; the opposite atom fixes both and
// lands on one server.
type pivotBlocks struct {
	pivot  int
	blocks map[int64]*hashing.Block
	order  []*hashing.Block // blocks by ascending pivot value
}

func (pb *pivotBlocks) route(j int, tuple []int64, i0, i1 int, v0, v1 int64,
	isPHeavy func(int, int64) bool, family *hashing.Family, emit *engine.Emitter) {
	switch {
	case i0 == pb.pivot || i1 == pb.pivot:
		// Relation adjacent to the pivot: route into the block of its pivot
		// value when the other value is p-light.
		pv, ov, ovar := v0, v1, i1
		if i1 == pb.pivot {
			pv, ov, ovar = v1, v0, i0
		}
		if b := pb.blocks[pv]; b != nil && !isPHeavy(ovar, ov) {
			emit.EmitRouted(b, family, j, tuple)
		}
	default:
		// The opposite relation (no pivot variable): both values must be
		// p-light; replicate to every pivot block at the fixed grid point.
		if isPHeavy(i0, v0) || isPHeavy(i1, v1) {
			return
		}
		// Sorted by pivot value, not map order: replication order feeds
		// inbox order, which must match across runs and SPMD ranks.
		for _, b := range pb.order {
			emit.EmitRouted(b, family, j, tuple)
		}
	}
}

// newTriLayout allocates the server ranges for all groups.
func newTriLayout(q *query.Query, p int, freq []map[int64]int, cubeHeavy []map[int64]bool, bpv int, relTuples []int) *triLayout {
	lay := &triLayout{atomDims: q.AtomDims()}
	offset := p // servers [0,p) hold the seeded input; light grid starts fresh
	place := func(shares []int) *hashing.Block {
		b := hashing.NewBlock(offset, hashing.NewGrid(shares), lay.atomDims)
		lay.blocks = append(lay.blocks, b)
		offset += b.Grid.P()
		return b
	}

	// Light grid: shares p^{1/3} per variable.
	lay.light = place(packing.IntegerShares([]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, p))

	// Case-1 groups in priority order: (x1,x2) via S1; (x2,x3) via S2 with
	// x1 excluded; (x3,x1) via S3 with x2 excluded. Variable/atom indices
	// follow query.Triangle(): S1(x1,x2), S2(x2,x3), S3(x3,x1).
	mk := func(span, joinVar, exclude int) *case1Group {
		shares := []int{1, 1, 1}
		shares[joinVar] = p
		return &case1Group{block: place(shares), span: span, joinVar: joinVar, excludeVar: exclude}
	}
	lay.case1 = []*case1Group{
		mk(0, 2, -1),
		mk(1, 0, 0),
		mk(2, 1, 1),
	}

	// Case-2 pivot blocks.
	for pivot := 0; pivot < 3; pivot++ {
		hs := cubeHeavy[pivot]
		if len(hs) == 0 {
			continue
		}
		values := make([]int64, 0, len(hs))
		for v := range hs {
			values = append(values, v)
		}
		sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })

		// Allocation: p/(2|H|) uniformly plus p·w(h)/(2Σw) with
		// w(h) = M_R(h)·M_T(h) (the two pivot-adjacent fiber sizes).
		wsum := 0.0
		w := make(map[int64]float64, len(values))
		for _, h := range values {
			wh := float64(freq[pivot][h]) * float64(freq[pivot][h])
			w[h] = wh
			wsum += wh
		}
		pb := &pivotBlocks{pivot: pivot, blocks: make(map[int64]*hashing.Block, len(values))}
		// Residual query for the share LP: R'(a), S(a,b), T'(b).
		resQ := query.New("residual",
			query.Atom{Name: "Rp", Vars: []string{"a"}},
			query.Atom{Name: "Sm", Vars: []string{"a", "b"}},
			query.Atom{Name: "Tp", Vars: []string{"b"}},
		)
		// Middle relation: the atom not containing the pivot.
		midAtom := oppositeAtom(q, pivot)
		midBits := float64(2*bpv) * float64(relTuples[midAtom])
		for _, h := range values {
			ph := p/(2*len(values)) + 1
			if wsum > 0 {
				ph += int(float64(p) * w[h] / (2 * wsum))
			}
			fiber := float64(freq[pivot][h]) * float64(bpv)
			if fiber < 1 {
				fiber = 1
			}
			sh := packing.ShareExponents(resQ, []float64{fiber, midBits, fiber}, math.Max(2, float64(ph)))
			// Shares for (a, b) become the shares of the two non-pivot
			// variables, in q.Vars() order; the pivot's share is 1.
			ab := packing.IntegerShares(sh.Exponents[:2], ph) // the residual share LP has 2 variables (a, b)
			b := place(slices.Insert(ab, pivot, 1))
			pb.blocks[h] = b
			pb.order = append(pb.order, b)
		}
		lay.pivots[pivot] = pb
	}
	lay.totalServers = offset
	return lay
}

func oppositeAtom(q *query.Query, pivot int) int {
	pv := q.Vars()[pivot]
	for j, a := range q.Atoms {
		if !a.HasVar(pv) {
			return j
		}
	}
	panic("skew: no opposite atom")
}

// keep returns the output-row predicate of server s's group, nil where
// routing alone keeps the classes disjoint (case-2 blocks, and case-1 groups
// with no excluded variable).
func (lay *triLayout) keep(s int, pHeavy []map[int64]bool) func(row []int64) bool {
	i := lay.blocks.Find(s)
	if i < 0 {
		return nil
	}
	b := lay.blocks[i]
	if b == lay.light {
		// Light group: routing already guarantees all three values are
		// cube-light, but a triangle may still contain a p-heavy (yet
		// cube-light) PAIR — the cube threshold m/p^{1/3} sits above the
		// case-1 threshold m/p — and such triangles belong to their case-1
		// group, which also computes them. Keep only triangles with at most
		// one p-heavy value so the classes stay disjoint (found by the
		// differential-oracle suite on multi-heavy inputs).
		return func(t []int64) bool {
			heavy := 0
			for v := 0; v < 3; v++ {
				if pHeavy[v][t[v]] {
					heavy++
				}
			}
			return heavy < 2
		}
	}
	for _, g := range lay.case1 {
		if g.block == b && g.excludeVar >= 0 {
			return func(t []int64) bool { return !pHeavy[g.excludeVar][t[g.excludeVar]] }
		}
	}
	return nil
}
