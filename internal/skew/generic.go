// Package skew implements the skew-aware one-round algorithm of Section 4.2,
// which assumes the servers know the heavy hitters and their (approximate)
// frequencies, as the heavy/light-pattern construction of the paper's
// follow-up ("the BinHC algorithm", reference [6]; arXiv 1401.1872): one
// planner, PrepareGeneric + RunGenericPlannedNet, for every connected query.
// The star of Section 4.2.1 (the simple join is its k = 2 case) is the case
// with one heavy variable, z; the triangle of Section 4.2.2 is C3.
//
// Let s be the integer HyperCube shares of the skew-free (all-light) grid on
// p servers. A value of variable v is heavy iff its degree in some atom j
// holding v is at least max(2, ⌊m_j/s_v⌋), the degree below which HyperCube
// on shares s keeps its skew-free load; on a star of equal relation sizes
// s_z = p, and the cut is the paper's m/p.
// Every *output pattern* — an assignment of heavy values to a subset of the
// variables, with all other variables light — gets its own HyperCube block:
//
//   - the all-light pattern runs the vanilla HyperCube on shares s;
//   - a pattern σ fixing variables X runs the residual query on a grid over
//     the light variables, with shares from the share LP on the residual
//     statistics (atom j's count M_j(σ) of the pinned values) and servers
//     allocated proportionally to the pattern's packing weight.
//
// Tuples route to every pattern consistent with them; output tuples are
// produced in exactly one block (patterns partition the output), so no
// deduplication occurs. The number of blocks is Π_v (1+|H_v|), so the heavy
// sets are cut, lightest first, to maxPatterns blocks (and, on request, to
// a per-variable cap). The blocks are laid back to back from server 0, on
// the input servers as well: the layout spans max(p, Σ block sizes)
// servers. Following the paper, the algorithm may use Θ(p) servers, a
// constant factor more than p; loads are compared against bounds
// parameterized by the requested p.
package skew

import (
	"cmp"
	"maps"
	"math"
	"slices"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/hashing"
	"mpcquery/internal/localjoin"
	"mpcquery/internal/packing"
	"mpcquery/internal/query"
)

// maxPatterns bounds the heavy/light patterns of one plan.
const maxPatterns = 4096

// GenericPlan is the reusable, seed-independent part of a generalized
// heavy/light-pattern run: the per-variable heavy sets and the full pattern
// enumeration with grids and server offsets. Preparing it is the expensive
// phase of the algorithm — Π_v(1+|H_v|) patterns, each with its own share-LP
// solve — so a service caches it per (query shape, database, p, heavy cap)
// and replays it. The plan is immutable after preparation and safe for
// concurrent RunGenericPlannedNet calls.
type GenericPlan struct {
	heavy        []map[int64]bool
	patterns     []*genPattern
	layout       hashing.Layout // patterns[i].block is layout[i]
	inputServers int
	totalServers int
	nHeavy       int

	// Routing index: atomDims[j] lists the grid dimension of each column of
	// atom j, and routes[j] maps a tuple's heavy/light signature on those
	// dimensions to exactly the patterns it matches. A tuple matches a
	// pattern iff the pattern pins precisely the tuple's heavy values and
	// leaves its light dimensions unpinned, so the signature determines the
	// match set — routing costs O(matches) instead of O(all patterns).
	atomDims [][]int
	routes   []map[string][]*genPattern
}

// appendSignature appends the heavy/light signature of vals over dims:
// per column, either a light marker or the pinned/heavy value. get reports
// the pinned value (pattern side) or the tuple value with its heavy flag
// (tuple side).
func appendSignature(buf []byte, dims []int, val func(c, d int) (int64, bool)) []byte {
	for c, d := range dims {
		v, heavy := val(c, d)
		if !heavy {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
	return buf
}

// HeavyHitters returns the total number of heavy values across variables.
func (gp *GenericPlan) HeavyHitters() int { return gp.nHeavy }

// ServersUsed returns the total servers the layout spans.
func (gp *GenericPlan) ServersUsed() int { return gp.totalServers }

// NumPatterns returns the number of heavy/light output patterns.
func (gp *GenericPlan) NumPatterns() int { return len(gp.patterns) }

// PrepareGeneric computes heavy sets and the pattern layout from exact
// column counts — the statistics and planning phase of the generic
// algorithm, split out so its result can be cached. maxHeavyPerVar caps each
// variable's heavy set (math.MaxInt: no cap).
func PrepareGeneric(q *query.Query, db *data.Database, p int, maxHeavyPerVar int) *GenericPlan {
	light := skewFreeShares(q, db, p)
	counts := exactCounts(q, db, light)
	return newGenericPlan(q, db, p, light, genericHeavy(q, db, light, counts, maxHeavyPerVar), counts)
}

// PrepareGenericFromStats is PrepareGeneric on estimated counts: perAtom
// holds, per (relation, column) pair of spec, its value counts, as
// StatsSpec.RunNet returns them. A column spec does not profile has no heavy
// values and leaves its atom's fragments at the atom's size. Statistics only
// drive heavy-hitter selection and server allocation; correctness never
// depends on their accuracy — bad estimates only cost load.
func PrepareGenericFromStats(q *query.Query, db *data.Database, p int, maxHeavyPerVar int, spec StatsSpec, perAtom []map[int64]int) *GenericPlan {
	counts := make([][]map[int64]int, q.NumAtoms())
	for j, a := range q.Atoms {
		counts[j] = make([]map[int64]int, a.Arity())
		for i, rel := range spec.Rels {
			if rel == db.Get(a.Name) {
				counts[j][spec.Cols[i]] = perAtom[i]
			}
		}
	}
	light := skewFreeShares(q, db, p)
	return newGenericPlan(q, db, p, light, genericHeavy(q, db, light, counts, maxHeavyPerVar), counts)
}

// skewFreeShares returns the integer HyperCube shares of q's all-light grid
// on p servers, from which the heavy cuts are taken.
func skewFreeShares(q *query.Query, db *data.Database, p int) []int {
	if !q.IsConnected() {
		panic("skew: the generic planner requires a connected query")
	}
	return patternShares(q, nil, statsFor(q, db, nil, nil), p)
}

// heavyCut is the degree from which a value of a variable with share s is
// heavy in an m-tuple column: ⌊m/s⌋, and never a value that occurs once.
func heavyCut(m, s int) int { return max(2, m/s) }

// exactCounts returns, per atom and column, the exact count of every value
// that reaches its cut in some column of its variable. Every column is sorted
// once (concurrently) and only its runs of at least the cut — at most s_v —
// become candidates; each candidate is then counted in all of its variable's
// columns, also those where it is light, since every atom's fragment of a
// pinned value is its own count there.
func exactCounts(q *query.Query, db *data.Database, light []int) [][]map[int64]int {
	type column struct {
		j, c, v int
		sorted  []int64
	}
	var cols []column
	for j, a := range q.Atoms {
		for c, av := range a.Vars {
			cols = append(cols, column{j: j, c: c, v: q.VarIndex(av)})
		}
	}
	engine.ParallelFor(len(cols), func(n int) {
		cols[n].sorted = data.SortedColumn(db.Get(q.Atoms[cols[n].j].Name), cols[n].c)
	})
	candidates := make([][]int64, q.NumVars())
	for _, c := range cols {
		for _, run := range data.Runs(c.sorted, heavyCut(len(c.sorted), light[c.v])) {
			candidates[c.v] = append(candidates[c.v], run.Value)
		}
	}
	counts := make([][]map[int64]int, q.NumAtoms())
	for j, a := range q.Atoms {
		counts[j] = make([]map[int64]int, a.Arity())
	}
	for _, c := range cols {
		counts[c.j][c.c] = make(map[int64]int, len(candidates[c.v]))
		for _, val := range candidates[c.v] {
			if n := data.CountOf(c.sorted, val); n > 0 {
				counts[c.j][c.c][val] = n
			}
		}
	}
	return counts
}

// genericHeavy returns, per variable v, the heavy set: every value whose
// count in some column of v reaches heavyCut(m_j, light[v]), cut to the
// maxHeavyPerVar heaviest and then, lightest first, to maxPatterns
// patterns. A value weighs its largest fragment in bits over v's columns.
func genericHeavy(q *query.Query, db *data.Database, light []int, counts [][]map[int64]int, maxHeavyPerVar int) []map[int64]bool {
	bpv := data.BitsPerValue(db.N)
	frag := make([]map[int64]float64, q.NumVars()) // per variable: heavy value -> largest fragment bits
	for i := range frag {
		frag[i] = make(map[int64]float64)
	}
	for j, a := range q.Atoms {
		m := db.Get(a.Name).NumTuples()
		for c, av := range a.Vars {
			v := q.VarIndex(av)
			for val, n := range counts[j][c] {
				if n >= heavyCut(m, light[v]) {
					frag[v][val] = 0
				}
			}
		}
	}
	for j, a := range q.Atoms {
		for c, av := range a.Vars {
			v := q.VarIndex(av)
			for val := range frag[v] {
				frag[v][val] = max(frag[v][val], float64(counts[j][c][val]*a.Arity()*bpv))
			}
		}
	}
	// Keep the heaviest values (by fragment bits, ties by value): at most
	// maxHeavyPerVar per variable, and no more than fit maxPatterns patterns.
	// The rest are treated as light (correct, just with weaker load
	// guarantees).
	type hv struct {
		v    int
		val  int64
		bits float64
	}
	var all []hv
	for v := range frag {
		for val, bits := range frag[v] {
			all = append(all, hv{v, val, bits})
		}
	}
	slices.SortFunc(all, func(x, y hv) int {
		return cmp.Or(cmp.Compare(y.bits, x.bits), cmp.Compare(x.val, y.val), cmp.Compare(x.v, y.v))
	})
	heavy := make([]map[int64]bool, q.NumVars())
	for i := range heavy {
		heavy[i] = make(map[int64]bool)
	}
	patterns := 1
	for _, e := range all {
		n := len(heavy[e.v])
		if n >= maxHeavyPerVar {
			continue
		}
		next := patterns / (n + 1) * (n + 2) // one more value of e.v
		if next > maxPatterns {
			break
		}
		patterns = next
		heavy[e.v][e.val] = true
	}
	return heavy
}

// newGenericPlan lays the heavy/light patterns of the given heavy sets out
// over the servers and compiles their routes.
func newGenericPlan(q *query.Query, db *data.Database, p int, light []int, heavy []map[int64]bool, counts [][]map[int64]int) *GenericPlan {
	atomDims := q.AtomDims()
	patterns := enumeratePatterns(q, db, p, light, heavy, counts, atomDims)
	layout := make(hashing.Layout, len(patterns))
	total := 0
	for i, pat := range patterns {
		layout[i] = pat.block
		total += pat.block.Grid.P()
	}

	nHeavy := 0
	for i := range heavy {
		nHeavy += len(heavy[i])
	}

	routes := make([]map[string][]*genPattern, q.NumAtoms())
	for j, dims := range atomDims {
		routes[j] = make(map[string][]*genPattern)
		var buf []byte
		for _, pat := range patterns {
			buf = appendSignature(buf[:0], dims, func(c, d int) (int64, bool) {
				hv, pinned := pat.assign[d]
				return hv, pinned
			})
			routes[j][string(buf)] = append(routes[j][string(buf)], pat)
		}
	}
	return &GenericPlan{
		heavy:        heavy,
		patterns:     patterns,
		layout:       layout,
		inputServers: p,
		totalServers: max(p, total),
		nHeavy:       nHeavy,
		atomDims:     atomDims,
		routes:       routes,
	}
}

// RunGenericPlannedNet executes the pattern-routing data round under a
// prepared layout: routing, local evaluation and metering, with the
// statistics phase already paid for (or cached) by the caller. Running a
// prepared plan is bit-identical to preparing it anew — preparation only
// moves work, never accounting. capBits is a declared per-round load cap in
// bits (Section 2.1's abort semantics; 0 = none); round delivery goes
// through env (the zero Env = in-process, untraced).
func RunGenericPlannedNet(gp *GenericPlan, q *query.Query, db *data.Database, p int, seed int64, capBits float64, env engine.Env) *engine.RunRecord {
	heavy, atomDims, routes := gp.heavy, gp.atomDims, gp.routes
	bpv := data.BitsPerValue(db.N)

	cluster := engine.NewClusterEnv(env, gp.totalServers, bpv)
	defer cluster.Release()
	if capBits > 0 {
		cluster.SetLoadCap(capBits)
	}
	cluster.SeedPartitioned(gp.inputServers, q, db)

	family := hashing.NewFamily(seed, q.NumVars())

	cluster.Round("skew-generic", func(s int, inbox *engine.Inbox, emit *engine.Emitter) {
		var sig []byte
		inbox.EachBatch(func(b engine.Batch) {
			j := b.Kind
			dims := atomDims[j]
			for off := 0; off < len(b.Vals); off += b.Arity {
				tuple := b.Vals[off : off+b.Arity]
				sig = appendSignature(sig[:0], dims, func(c, d int) (int64, bool) {
					return tuple[c], heavy[d][tuple[c]]
				})
				for _, pat := range routes[j][string(sig)] {
					emit.EmitRouted(pat.block, family, j, tuple)
				}
			}
		})
	})

	// A block receives only the tuples that match its pattern on every
	// column: pinned to its value where the pattern pins the variable,
	// light where it does not. Every variable sits in some atom, so every
	// output row of a block binds each variable to a value some matching
	// tuple carries: every row matches the block's pattern, and no row
	// needs filtering.
	out := localjoin.Output(cluster, q, env, gp.layout)

	rec := cluster.Record(out, inputBits(q, db))
	rec.HeavyHitters = gp.nHeavy
	return rec
}

// inputBits is the input size Σ_j M_j of q's atoms in db, in bits.
func inputBits(q *query.Query, db *data.Database) float64 {
	total := 0.0
	for _, a := range q.Atoms {
		total += db.Get(a.Name).SizeBits(db.N)
	}
	return total
}

// genPattern is one output class: variables in assign are pinned to heavy
// values, all others must be light. Its block's grid spans all k
// dimensions, with share 1 on the pinned ones.
type genPattern struct {
	assign map[int]int64
	block  *hashing.Block
}

// enumeratePatterns builds every heavy/light pattern with its server
// allocation and its block, the blocks back to back from server 0; the
// all-light pattern runs on the shares light.
func enumeratePatterns(q *query.Query, db *data.Database, p int, light []int,
	heavy []map[int64]bool, counts [][]map[int64]int, atomDims [][]int) []*genPattern {
	k := q.NumVars()
	heavyVals := make([][]int64, k)
	for i := range heavy {
		heavyVals[i] = slices.Sorted(maps.Keys(heavy[i]))
	}

	var raw []map[int]int64
	cur := make(map[int]int64)
	var rec func(d int)
	rec = func(d int) {
		if d == k {
			raw = append(raw, maps.Clone(cur))
			return
		}
		rec(d + 1) // d stays light
		for _, hv := range heavyVals[d] {
			cur[d] = hv
			rec(d + 1)
			delete(cur, d)
		}
	}
	rec(0)

	// Weight per pattern.
	weights := make([]float64, len(raw))
	sumW := 0.0
	for pi, assign := range raw {
		if len(assign) == 0 {
			continue // the all-light pattern gets the full p below
		}
		stats := statsFor(q, db, assign, counts)
		for mask := 1; mask < 1<<uint(q.NumAtoms()); mask++ {
			prod := 1.0
			for j := 0; j < q.NumAtoms(); j++ {
				if mask&(1<<uint(j)) != 0 {
					prod *= stats[j]
				}
			}
			weights[pi] += prod
		}
		sumW += weights[pi]
	}

	out := make([]*genPattern, 0, len(raw))
	offset := 0
	for pi, assign := range raw {
		shares := light
		if len(assign) > 0 {
			ps := 1
			if sumW > 0 {
				ps = max(1, int(float64(p)*weights[pi]/sumW))
			}
			shares = patternShares(q, assign, statsFor(q, db, assign, counts), ps)
		}
		grid := hashing.NewGrid(shares)
		out = append(out, &genPattern{assign: assign, block: hashing.NewBlock(offset, grid, atomDims)})
		offset += grid.P()
	}
	return out
}

// statsFor estimates every atom's fragment under a pattern, in bits: the
// atom's full size, or, where the pattern pins some of its variables, the
// smallest of the atom's own counts of the pinned values (the paper's
// M_j(h)). A column without counts leaves the size.
func statsFor(q *query.Query, db *data.Database, assign map[int]int64, counts [][]map[int64]int) []float64 {
	bpv := data.BitsPerValue(db.N)
	stats := make([]float64, q.NumAtoms())
	for j, a := range q.Atoms {
		s := db.Get(a.Name).SizeBits(db.N)
		for c, v := range a.Vars {
			if hv, ok := assign[q.VarIndex(v)]; ok && counts[j][c] != nil {
				s = min(s, float64(counts[j][c][hv]*a.Arity()*bpv))
			}
		}
		stats[j] = max(s, 1)
	}
	return stats
}

// patternShares computes integer shares over all k dims: pinned dims get
// share 1; light dims get the share-LP solution of the residual query.
func patternShares(q *query.Query, assign map[int]int64, stats []float64, ps int) []int {
	k := q.NumVars()
	sh := make([]int, k)
	for i := range sh {
		sh[i] = 1
	}
	if ps < 2 {
		return sh
	}
	// Residual query: drop pinned variables from atoms; drop atoms with no
	// light variables.
	var atoms []query.Atom
	var resStats []float64
	for j, a := range q.Atoms {
		var lightVars []string
		seen := map[string]bool{}
		for _, v := range a.Vars {
			if _, pinned := assign[q.VarIndex(v)]; !pinned && !seen[v] {
				seen[v] = true
				lightVars = append(lightVars, v)
			}
		}
		if len(lightVars) == 0 {
			continue
		}
		atoms = append(atoms, query.Atom{Name: a.Name, Vars: lightVars})
		resStats = append(resStats, math.Max(stats[j], 2))
	}
	if len(atoms) == 0 {
		return sh
	}
	res := query.New("residual", atoms...)
	exp := packing.ShareExponents(res, resStats, float64(ps))
	lightShares := packing.IntegerShares(exp.Exponents, ps)
	for i, v := range res.Vars() {
		sh[q.VarIndex(v)] = lightShares[i]
	}
	return sh
}

// The star and triangle names below only keep benchmark/'s call sites
// compiling: both queries run the generic algorithm. They go with ROADMAP
// item 2(e), the rename that moves those call sites.

// TrianglePlan is GenericPlan; it goes with ROADMAP item 2(e).
type TrianglePlan = GenericPlan

// PrepareTriangle is PrepareGeneric with no heavy cap; it goes with ROADMAP item 2(e).
func PrepareTriangle(q *query.Query, db *data.Database, p int) *TrianglePlan {
	return PrepareGeneric(q, db, p, math.MaxInt)
}

// RunTrianglePlannedNet is RunGenericPlannedNet; it goes with ROADMAP item 2(e).
func RunTrianglePlannedNet(tp *TrianglePlan, q *query.Query, db *data.Database, p int, seed int64, capBits float64, env engine.Env) *engine.RunRecord {
	return RunGenericPlannedNet(tp, q, db, p, seed, capBits, env)
}

// StarPlan is GenericPlan; it goes with ROADMAP item 2(e).
type StarPlan = GenericPlan

// PrepareStarWithFrequencies is PrepareGenericFromStats on StarStatsSpec's columns with no heavy cap; it goes with ROADMAP item 2(e).
func PrepareStarWithFrequencies(q *query.Query, db *data.Database, p int, freqs []map[int64]int) *StarPlan {
	return PrepareGenericFromStats(q, db, p, math.MaxInt, StarStatsSpec(q, db, p), freqs)
}

// RunStarPlannedNet is RunGenericPlannedNet; it goes with ROADMAP item 2(e).
func RunStarPlannedNet(sp *StarPlan, q *query.Query, db *data.Database, p int, seed int64, capBits float64, env engine.Env) *engine.RunRecord {
	return RunGenericPlannedNet(sp, q, db, p, seed, capBits, env)
}
