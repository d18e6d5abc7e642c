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

// The generic algorithm (PrepareGeneric + RunGenericPlannedNet) computes an
// arbitrary connected conjunctive query — the triangle of Section 4.2.2
// included — in one round with heavy-hitter statistics, along the lines of
// the paper's follow-up ("the BinHC algorithm", reference [6]; arXiv
// 1401.1872). Let s be the integer HyperCube shares of the skew-free
// (all-light) grid on p servers. A value of variable v is heavy iff its
// degree in some atom j holding v is at least max(2, m_j/s_v), the degree
// below which HyperCube on shares s keeps its skew-free load. Every *output
// pattern* — an assignment of heavy values to a subset of the variables,
// with all other variables light — gets its own HyperCube block:
//
//   - the all-light pattern runs the vanilla HyperCube on shares s;
//   - a pattern σ fixing variables X runs the residual query on a grid over
//     the light variables, with shares from the share LP on the residual
//     statistics and servers allocated proportionally to the pattern's
//     packing weight.
//
// Tuples route to every pattern consistent with them; output tuples are
// produced in exactly one block (patterns partition the output), so no
// deduplication occurs. The number of blocks is Π_v (1+|H_v|), so heavy
// sets are capped at maxHeavyPerVar and, lightest first, to maxPatterns
// blocks (the paper notes the general case has no tight bound; this is the
// honest simplified construction).

// DefaultHeavyCap is the per-variable heavy-set cap of a run that sets none.
const DefaultHeavyCap = 32

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

// PrepareGeneric computes heavy sets and the pattern layout — the statistics
// and planning phase of the generic algorithm, split out so its result can be
// cached.
func PrepareGeneric(q *query.Query, db *data.Database, p int, maxHeavyPerVar int) *GenericPlan {
	if !q.IsConnected() {
		panic("skew: PrepareGeneric requires a connected query")
	}
	light := patternShares(q, nil, statsFor(q, db, nil, nil), p)
	heavy, freqBits := genericHeavy(q, db, light, maxHeavyPerVar)
	return newGenericPlan(q, db, p, light, heavy, freqBits)
}

// genericHeavy returns, per variable v, the heavy set (degree ≥
// max(2, m_j/light[v]) in some adjacent relation j, cut to the
// maxHeavyPerVar heaviest and then, lightest first, to maxPatterns patterns)
// and every heavy value's largest fragment in bits over v's adjacent
// relations.
func genericHeavy(q *query.Query, db *data.Database, light []int, maxHeavyPerVar int) ([]map[int64]bool, []map[int64]float64) {
	// Every column of every atom, sorted concurrently; only runs of at least
	// m_j/s_v — at most s_v per column — reach a table.
	type column struct {
		rel    *data.Relation
		col, v int     // position in rel, index of the variable bound there
		bits   float64 // size of one tuple of rel
		sorted []int64
	}
	bpv := data.BitsPerValue(db.N)
	var cols []column
	for _, a := range q.Atoms {
		for c, av := range a.Vars {
			cols = append(cols, column{rel: db.Get(a.Name), col: c, v: q.VarIndex(av), bits: float64(a.Arity() * bpv)})
		}
	}
	engine.ParallelFor(len(cols), func(n int) {
		cols[n].sorted = data.SortedColumn(cols[n].rel, cols[n].col)
	})

	// Heavy sets per variable.
	heavy := make([]map[int64]bool, q.NumVars())
	freqBits := make([]map[int64]float64, q.NumVars()) // per variable: heavy value -> max fragment bits
	for i := range heavy {
		heavy[i] = make(map[int64]bool)
		freqBits[i] = make(map[int64]float64)
	}
	for _, c := range cols {
		thr := math.Max(2, float64(len(c.sorted))/float64(light[c.v]))
		for _, run := range data.Runs(c.sorted, int(math.Ceil(thr))) {
			heavy[c.v][run.Value] = true
		}
	}
	// A heavy value's fragment is its largest over the variable's columns,
	// also those where it is light (relation sizes differ): look each one up.
	for _, c := range cols {
		for val := range heavy[c.v] {
			freqBits[c.v][val] = max(freqBits[c.v][val], float64(data.CountOf(c.sorted, val))*c.bits)
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
	for v := range heavy {
		for val := range heavy[v] {
			all = append(all, hv{v, val, freqBits[v][val]})
		}
		heavy[v] = make(map[int64]bool)
	}
	slices.SortFunc(all, func(x, y hv) int {
		return cmp.Or(cmp.Compare(y.bits, x.bits), cmp.Compare(x.val, y.val), cmp.Compare(x.v, y.v))
	})
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

	return heavy, freqBits
}

// newGenericPlan lays the heavy/light patterns of the given heavy sets out
// over the servers and compiles their routes.
func newGenericPlan(q *query.Query, db *data.Database, p int, light []int, heavy []map[int64]bool, freqBits []map[int64]float64) *GenericPlan {
	atomDims := q.AtomDims()
	patterns := enumeratePatterns(q, db, p, light, heavy, freqBits, atomDims)
	layout := make(hashing.Layout, len(patterns))
	total := p
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
		totalServers: total,
		nHeavy:       nHeavy,
		atomDims:     atomDims,
		routes:       routes,
	}
}

// RunGenericPlannedNet executes the pattern-routing data round under a
// prepared layout; see RunStarPlannedNet for the caching contract
// (bit-identical to the unprepared path), the cap and env.
func RunGenericPlannedNet(gp *GenericPlan, q *query.Query, db *data.Database, p int, seed int64, capBits float64, env engine.Env) *engine.RunRecord {
	k := q.NumVars()
	heavy, patterns := gp.heavy, gp.patterns
	inputServers, total := gp.inputServers, gp.totalServers
	atomDims, routes := gp.atomDims, gp.routes
	bpv := data.BitsPerValue(db.N)

	cluster := engine.NewClusterEnv(env, total, bpv)
	defer cluster.Release()
	if capBits > 0 {
		cluster.SetLoadCap(capBits)
	}
	cluster.SeedPartitioned(inputServers, q, db)

	family := hashing.NewFamily(seed, k)

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

	// Every server with an inbox lies in a pattern block: the input servers
	// before the blocks receive nothing. Routing already keeps rows that
	// violate a block's pattern out of it; the predicate keeps the partition
	// property robust.
	vars := make([]int, k) // output column d holds variable d
	for d := range vars {
		vars[d] = d
	}
	out := localjoin.Output(cluster, q, env, gp.layout, func(s int) func([]int64) bool {
		pat := patterns[gp.layout.Find(s)]
		return func(row []int64) bool { return pat.matches(vars, row, heavy) }
	})

	rec := cluster.Record(out, inputBits(q, db))
	rec.HeavyHitters = gp.nHeavy
	return rec
}

// genPattern is one output class: variables in assign are pinned to heavy
// values, all others must be light. Its block's grid spans all k
// dimensions, with share 1 on the pinned ones.
type genPattern struct {
	assign map[int]int64
	block  *hashing.Block
}

// matches reports whether a tuple of an atom (with the given variable dims)
// is consistent with the pattern.
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

// enumeratePatterns builds every heavy/light pattern with its server
// allocation and its block, the blocks back to back after the p input
// servers; the all-light pattern runs on the shares light.
func enumeratePatterns(q *query.Query, db *data.Database, p int, light []int,
	heavy []map[int64]bool, freqBits []map[int64]float64, atomDims [][]int) []*genPattern {
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
		stats := statsFor(q, db, assign, freqBits)
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
	offset := p
	for pi, assign := range raw {
		shares := light
		if len(assign) > 0 {
			ps := 1
			if sumW > 0 {
				ps = max(1, int(float64(p)*weights[pi]/sumW))
			}
			shares = patternShares(q, assign, statsFor(q, db, assign, freqBits), ps)
		}
		grid := hashing.NewGrid(shares)
		out = append(out, &genPattern{assign: assign, block: hashing.NewBlock(offset, grid, atomDims)})
		offset += grid.P()
	}
	return out
}

// statsFor estimates every atom's fragment under a pattern, in bits: the
// atom's full size, or the smallest pinned fiber among its pinned variables.
func statsFor(q *query.Query, db *data.Database, assign map[int]int64, freqBits []map[int64]float64) []float64 {
	stats := make([]float64, q.NumAtoms())
	for j, a := range q.Atoms {
		s := db.Get(a.Name).SizeBits(db.N)
		for _, v := range a.Vars {
			d := q.VarIndex(v)
			if hv, ok := assign[d]; ok {
				if fb := freqBits[d][hv]; fb > 0 && fb < s {
					s = fb
				}
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

// The triangle names below only keep benchmark/'s call site compiling: the
// triangle runs the generic algorithm. They go with ROADMAP item 2(e), the
// rename that moves that call site.

// TrianglePlan is GenericPlan; it goes with ROADMAP item 2(e).
type TrianglePlan = GenericPlan

// PrepareTriangle is PrepareGeneric at DefaultHeavyCap; it goes with ROADMAP item 2(e).
func PrepareTriangle(q *query.Query, db *data.Database, p int) *TrianglePlan {
	return PrepareGeneric(q, db, p, DefaultHeavyCap)
}

// RunTrianglePlannedNet is RunGenericPlannedNet; it goes with ROADMAP item 2(e).
func RunTrianglePlannedNet(tp *TrianglePlan, q *query.Query, db *data.Database, p int, seed int64, capBits float64, env engine.Env) *engine.RunRecord {
	return RunGenericPlannedNet(tp, q, db, p, seed, capBits, env)
}
