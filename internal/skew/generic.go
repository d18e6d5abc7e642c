// Package skew implements the skew-aware one-round algorithm of Section 4.2
// (servers know the heavy hitters and their approximate frequencies) as the
// BinHC algorithm of the paper's follow-up (reference [6]; arXiv 1401.1872):
// one planner, PrepareGeneric + RunGenericPlannedNet, for every connected
// query. The star of Section 4.2.1 is the case with one heavy variable, z;
// the triangle of Section 4.2.2 is C3.
//
// Let s be the integer HyperCube shares of the skew-free (all-light) grid on
// p servers. A value of variable v is heavy iff its degree in some atom j
// holding v is at least max(2, ⌊m_j/s_v⌋), below which HyperCube on s keeps
// its skew-free load (on a star of equal relation sizes, the paper's m/p).
// Two heavy values of v share a bin iff ⌊log₂⌋ of their fragments agree in
// every column of v: O(log p) bins per column. Every *bin pattern* — a bin
// for each variable of a subset, all others light — gets a HyperCube block;
// the all-light one runs on s. A pattern B of |H_B| value tuples bounds atom
// j's fragment by its bins' largest count (the paper's M_j(h)), weighs
// w_B = |H_B|·w(M) but at least (|H_B|−1)·W/p (W: the heavy patterns'
// total), and gets p_B = max(1, ⌊p·w_B/W⌋) servers. Ranked in its bin by
// weight, a pinned value falls in group rank mod g_v: g_v is the bin's size
// K_v if p_B ≥ |H_B|, else the integer shares of p_B at exponents
// ln K_v / ln |H_B|. Each group tuple gets a sub-block of ⌊p_B/Π g_v⌋
// servers, a grid over the light variables shaped by the share LP.
//
// Tuples route to every sub-block consistent with them, and each output
// tuple is produced in exactly one. The Π_v (1+bins_v) patterns are laid
// back to back from server 0 over at most 2p + Π_v (1+bins_v) servers: the
// algorithm may use Θ(p) servers, and loads are compared against bounds
// parameterized by the requested p. Where every bin holds one value, the
// plan is the per-value one: a block per heavy/light pattern.
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

// GenericPlan is the reusable, seed-independent part of a heavy/light run:
// the heavy values with their bins, and every bin pattern with its
// sub-blocks and routes. Preparing it costs one share-LP solve per bin
// pattern, so a service caches it per (query shape, database, p). It is
// immutable and safe for concurrent RunGenericPlannedNet calls.
type GenericPlan struct {
	heavy        []map[int64]heavyVal // per variable: heavy value → its bin and rank
	patterns     []*binPattern
	layout       hashing.Layout // every pattern's sub-blocks, in pattern order
	inputServers int
	totalServers int
	nHeavy       int
	atoms        []atomIndex
}

// heavyVal places a heavy value: bin is 1 + its bin's index among its
// variable's bins (ordered by their smallest value), so the zero heavyVal
// marks a light value, and rank is its rank in the bin (weight descending,
// value ascending).
type heavyVal struct{ bin, rank int }

// binPattern is one output class: pinned[v] is v's bin, or -1 where v must be
// light. blocks is a mixed-radix array over groups (the last variable
// fastest); a value of rank r is in group r mod groups[v]. Every sub-block
// spans all k dimensions, with share 1 on the pinned ones.
type binPattern struct {
	pinned []int
	groups []int
	blocks []*hashing.Block
}

// atomIndex routes one atom's tuples. A tuple's bin vector is the mixed-radix
// number Σ (1+bin)·radix[c] over its heavy columns; routes[vector] lists the
// patterns consistent with it, in pattern order. src[c] is the first column
// of column c's variable; a later column of a repeated variable has radix 0
// and only has to agree with the first.
type atomIndex struct {
	dims, radix, src []int
	routes           [][]patternRoute
}

// patternRoute sends an atom's tuple into one pattern: to the sub-blocks
// base+fan[i], where base is Σ (rank mod groups)·stride over cols, the
// atom's columns of variables with several groups, and fan ranges over the
// groups of the pinned variables the atom lacks.
type patternRoute struct {
	blocks []*hashing.Block
	cols   []groupCol
	fan    []int
}

type groupCol struct{ col, groups, stride int }

// HeavyHitters returns the total number of heavy values across variables.
func (gp *GenericPlan) HeavyHitters() int { return gp.nHeavy }

// ServersUsed returns the total servers the layout spans.
func (gp *GenericPlan) ServersUsed() int { return gp.totalServers }

// NumPatterns returns the number of heavy/light bin patterns.
func (gp *GenericPlan) NumPatterns() int { return len(gp.patterns) }

// PrepareGeneric computes heavy sets and the pattern layout from exact
// column counts — the statistics and planning phase of the generic
// algorithm, split out so its result can be cached.
func PrepareGeneric(q *query.Query, db *data.Database, p int) *GenericPlan {
	light := skewFreeShares(q, db, p)
	return newGenericPlan(q, db, p, light, exactCounts(q, db, light))
}

// PrepareGenericFromStats is PrepareGeneric on estimated counts: perAtom
// holds, per (relation, column) pair of spec, its value counts, as
// StatsSpec.RunNet returns them. A column spec does not profile has no heavy
// values and leaves its atom's fragments at the atom's size. Statistics only
// drive heavy-hitter selection and server allocation; correctness never
// depends on their accuracy — bad estimates only cost load.
func PrepareGenericFromStats(q *query.Query, db *data.Database, p int, spec StatsSpec, perAtom []map[int64]int) *GenericPlan {
	counts := make([][]map[int64]int, q.NumAtoms())
	for j, a := range q.Atoms {
		counts[j] = make([]map[int64]int, a.Arity())
		for i, rel := range spec.Rels {
			if rel == db.Get(a.Name) {
				counts[j][spec.Cols[i]] = perAtom[i]
			}
		}
	}
	return newGenericPlan(q, db, p, skewFreeShares(q, db, p), counts)
}

// skewFreeShares returns the integer HyperCube shares of q's all-light grid
// on p servers, from which the heavy cuts are taken.
func skewFreeShares(q *query.Query, db *data.Database, p int) []int {
	if !q.IsConnected() {
		panic("skew: the generic planner requires a connected query")
	}
	allLight := slices.Repeat([]int{-1}, q.NumVars())
	return patternShares(q, allLight, statsFor(q, db, allLight, nil, nil), p)
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

// newGenericPlan picks the heavy values from the given counts — every value
// whose count in some column of its variable v reaches heavyCut(m_j,
// light[v]) — bins them, lays the bin patterns out over the servers and
// compiles their routes. A heavy value weighs its largest fragment in bits
// over v's columns.
func newGenericPlan(q *query.Query, db *data.Database, p int, light []int, counts [][]map[int64]int) *GenericPlan {
	k, atomDims, bpv := q.NumVars(), q.AtomDims(), data.BitsPerValue(db.N)
	gp := &GenericPlan{heavy: make([]map[int64]heavyVal, k), inputServers: p}
	bins := make([][][]int64, k) // bins[v][b]: the values of v's bin b, by rank
	for v := range k {
		set := map[int64]bool{}
		for j, dims := range atomDims {
			for c, d := range dims {
				for val, n := range counts[j][c] {
					if d == v && n >= heavyCut(db.Get(q.Atoms[j].Name).NumTuples(), light[v]) {
						set[val] = true
					}
				}
			}
		}
		gp.nHeavy += len(set)
		w, byBin := map[int64]float64{}, map[string][]int64{}
		for _, val := range slices.Sorted(maps.Keys(set)) {
			// Per column of v: 1+⌊log₂ fragment bits⌋, or 0 where val is absent
			// (Ilogb(0) is MinInt32).
			var key []byte
			for j, dims := range atomDims {
				for c, d := range dims {
					if bits := float64(counts[j][c][val] * len(dims) * bpv); d == v {
						key = append(key, byte(max(0, 1+math.Ilogb(bits))))
						w[val] = max(w[val], bits)
					}
				}
			}
			byBin[string(key)] = append(byBin[string(key)], val)
		}
		bins[v] = slices.SortedFunc(maps.Values(byBin), func(x, y []int64) int { return cmp.Compare(x[0], y[0]) })
		gp.heavy[v] = make(map[int64]heavyVal, len(set))
		for b, bin := range bins[v] {
			slices.SortStableFunc(bin, func(x, y int64) int { return cmp.Compare(w[y], w[x]) })
			for r, val := range bin {
				gp.heavy[v][val] = heavyVal{1 + b, r}
			}
		}
	}
	gp.patterns = enumeratePatterns(q, db, p, light, bins, counts)
	for _, pat := range gp.patterns {
		gp.layout = append(gp.layout, pat.blocks...)
	}
	last := gp.layout[len(gp.layout)-1]
	gp.totalServers = max(p, last.Offset+last.Grid.P())
	gp.atoms = indexAtoms(atomDims, bins, gp.patterns)
	return gp
}

// enumeratePatterns builds every bin pattern with its server allocation and
// its sub-blocks, back to back from server 0; the all-light pattern runs on
// the shares light.
func enumeratePatterns(q *query.Query, db *data.Database, p int, light []int, bins [][][]int64, counts [][]map[int64]int) []*binPattern {
	k, n := q.NumVars(), 1
	for _, b := range bins {
		n *= 1 + len(b)
	}
	// Per pattern (variable 0 slowest, light before every bin): its value
	// tuples |H_B| (a group per value of each bin for now), its statistics
	// and its weight.
	patterns, tuples := make([]*binPattern, n), make([]int, n)
	stats, weights, sumW := make([][]float64, n), make([]float64, n), 0.0
	for pi := range patterns {
		pat := &binPattern{pinned: make([]int, k), groups: slices.Repeat([]int{1}, k)}
		patterns[pi], tuples[pi] = pat, 1
		for v, rest := k-1, pi; v >= 0; v-- {
			pat.pinned[v], rest = rest%(1+len(bins[v]))-1, rest/(1+len(bins[v]))
			if b := pat.pinned[v]; b >= 0 {
				pat.groups[v] = len(bins[v][b])
				tuples[pi] *= pat.groups[v]
			}
		}
		if pi == 0 {
			continue // the all-light pattern gets the full p below
		}
		stats[pi] = statsFor(q, db, pat.pinned, bins, counts)
		for mask := 1; mask < 1<<uint(q.NumAtoms()); mask++ {
			prod := 1.0
			for j := 0; j < q.NumAtoms(); j++ {
				if mask&(1<<uint(j)) != 0 {
					prod *= stats[pi][j]
				}
			}
			weights[pi] += prod
		}
		weights[pi] *= float64(tuples[pi])
		sumW += weights[pi]
	}
	// A value tuple of a bin beyond its first weighs at least W/p, the one
	// server it would get as a pattern of its own: value tuples then share p
	// instead of adding a server each to it.
	floor, sumW := sumW/float64(p), 0.0
	for pi := 1; pi < len(patterns); pi++ {
		weights[pi] = max(weights[pi], float64(tuples[pi]-1)*floor)
		sumW += weights[pi]
	}

	offset, atomDims := 0, q.AtomDims()
	for pi, pat := range patterns {
		shares, sub := light, 1
		if pi > 0 {
			ps := max(1, int(float64(p)*weights[pi]/sumW))
			if ps < tuples[pi] {
				exp := make([]float64, k)
				for v, g := range pat.groups {
					exp[v] = math.Log(float64(g)) / math.Log(float64(tuples[pi]))
				}
				pat.groups = packing.IntegerShares(exp, ps)
			}
			for _, g := range pat.groups {
				sub *= g
			}
			shares = patternShares(q, pat.pinned, stats[pi], ps/sub)
		}
		// The sub-blocks share one grid and its compiled routes.
		first := hashing.NewBlock(offset, hashing.NewGrid(shares), atomDims)
		for range sub {
			b := *first
			b.Offset = offset
			pat.blocks = append(pat.blocks, &b)
			offset += b.Grid.P()
		}
	}
	return patterns
}

// indexAtoms compiles every atom's route table over the patterns: a pattern
// is consistent with exactly one bin vector of each atom, the one pinning
// its variables' columns to its bins and leaving the others light.
func indexAtoms(atomDims [][]int, bins [][][]int64, patterns []*binPattern) []atomIndex {
	atoms := make([]atomIndex, len(atomDims))
	for j, dims := range atomDims {
		ai := atomIndex{dims: dims, radix: make([]int, len(dims)), src: make([]int, len(dims))}
		n := 1
		for c, d := range dims {
			if ai.src[c] = slices.Index(dims, d); ai.src[c] == c {
				ai.radix[c] = n
				n *= 1 + len(bins[d])
			}
		}
		ai.routes = make([][]patternRoute, n)
		for _, pat := range patterns {
			vec, stride := 0, len(pat.blocks)
			r := patternRoute{blocks: pat.blocks}
			for c, d := range dims {
				vec += (1 + pat.pinned[d]) * ai.radix[c]
			}
			for v, g := range pat.groups {
				if stride /= g; g > 1 && slices.Contains(dims, v) {
					r.cols = append(r.cols, groupCol{slices.Index(dims, v), g, stride})
				}
			}
			// The sub-blocks whose digits on the atom's variables are 0:
			// the groups of the pinned variables the atom lacks.
			for i := range pat.blocks {
				if !slices.ContainsFunc(r.cols, func(c groupCol) bool { return i/c.stride%c.groups != 0 }) {
					r.fan = append(r.fan, i)
				}
			}
			ai.routes[vec] = append(ai.routes[vec], r)
		}
		atoms[j] = ai
	}
	return atoms
}

// route appends to dst the sub-blocks a tuple of atom j reaches, in layout
// order, and returns it; ranks is scratch of at least the atom's arity.
func (gp *GenericPlan) route(dst []*hashing.Block, j int, tuple []int64, ranks []int) []*hashing.Block {
	ai := &gp.atoms[j]
	vec := 0
	for c, d := range ai.dims {
		hv := gp.heavy[d][tuple[c]]
		ranks[c] = hv.rank
		if src := ai.src[c]; src == c {
			vec += hv.bin * ai.radix[c]
		} else if tuple[c] != tuple[src] && hv.bin+gp.heavy[d][tuple[src]].bin > 0 {
			return dst // patterns want a repeated variable's values equal or all light
		}
	}
	for i := range ai.routes[vec] {
		r := &ai.routes[vec][i]
		base := 0
		for _, c := range r.cols {
			base += ranks[c.col] % c.groups * c.stride
		}
		for _, f := range r.fan {
			dst = append(dst, r.blocks[base+f])
		}
	}
	return dst
}

// RunGenericPlannedNet executes the pattern-routing data round under a
// prepared layout: routing, local evaluation and metering, with the
// statistics phase already paid for (or cached) by the caller. Running a
// prepared plan is bit-identical to preparing it anew — preparation only
// moves work, never accounting. capBits is a declared per-round load cap in
// bits (Section 2.1's abort semantics; 0 = none); round delivery goes
// through env (the zero Env = in-process, untraced).
func RunGenericPlannedNet(gp *GenericPlan, q *query.Query, db *data.Database, p int, seed int64, capBits float64, env engine.Env) *engine.RunRecord {
	cluster := engine.NewClusterEnv(env, gp.totalServers, data.BitsPerValue(db.N))
	defer cluster.Release()
	if capBits > 0 {
		cluster.SetLoadCap(capBits)
	}
	cluster.SeedPartitioned(gp.inputServers, q, db)

	family := hashing.NewFamily(seed, q.NumVars())

	cluster.Round("skew-generic", func(s int, inbox *engine.Inbox, emit *engine.Emitter) {
		var ranks []int
		var dst []*hashing.Block
		inbox.EachBatch(func(b engine.Batch) {
			j := b.Kind
			if len(ranks) < b.Arity {
				ranks = make([]int, b.Arity)
			}
			for off := 0; off < len(b.Vals); off += b.Arity {
				tuple := b.Vals[off : off+b.Arity]
				dst = gp.route(dst[:0], j, tuple, ranks)
				for _, blk := range dst {
					emit.EmitRouted(blk, family, j, tuple)
				}
			}
		})
	})

	// A sub-block receives only the tuples that match it on every column:
	// in the pinned bin and group where its pattern pins the variable, light
	// where it does not. Every variable sits in some atom, so every output
	// row of a sub-block matches it too, and no row needs filtering.
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

// statsFor bounds every atom's fragment under a pattern, in bits: the atom's
// size, or the smallest over its pinned columns of its largest count of a
// value of the pinned bin there (the paper's M_j(h)). A column without
// counts leaves the size.
func statsFor(q *query.Query, db *data.Database, pinned []int, bins [][][]int64, counts [][]map[int64]int) []float64 {
	bpv := data.BitsPerValue(db.N)
	stats := make([]float64, q.NumAtoms())
	for j, a := range q.Atoms {
		s := db.Get(a.Name).SizeBits(db.N)
		for c, v := range a.Vars {
			if b := pinned[q.VarIndex(v)]; b >= 0 && counts[j][c] != nil {
				n := 0
				for _, val := range bins[q.VarIndex(v)][b] {
					n = max(n, counts[j][c][val])
				}
				s = min(s, float64(n*a.Arity()*bpv))
			}
		}
		stats[j] = max(s, 1)
	}
	return stats
}

// patternShares computes integer shares over all k dims: pinned dims
// (pinned[v] ≥ 0) get share 1; light dims get the share-LP solution of the
// residual query.
func patternShares(q *query.Query, pinned []int, stats []float64, ps int) []int {
	sh := slices.Repeat([]int{1}, q.NumVars())
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
			if pinned[q.VarIndex(v)] < 0 && !seen[v] {
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

// The star and triangle names below are the generic planner's under the
// names benchmark/'s call sites use. They go with ROADMAP item 2(e), the
// rename that moves those call sites.
type (
	TrianglePlan = GenericPlan
	StarPlan     = GenericPlan
)

// PrepareTriangle is PrepareGeneric.
func PrepareTriangle(q *query.Query, db *data.Database, p int) *TrianglePlan {
	return PrepareGeneric(q, db, p)
}

// RunTrianglePlannedNet is RunGenericPlannedNet.
func RunTrianglePlannedNet(tp *TrianglePlan, q *query.Query, db *data.Database, p int, seed int64, capBits float64, env engine.Env) *engine.RunRecord {
	return RunGenericPlannedNet(tp, q, db, p, seed, capBits, env)
}

// PrepareStarWithFrequencies is PrepareGenericFromStats on StarStatsSpec's columns.
func PrepareStarWithFrequencies(q *query.Query, db *data.Database, p int, freqs []map[int64]int) *StarPlan {
	return PrepareGenericFromStats(q, db, p, StarStatsSpec(q, db, p), freqs)
}

// RunStarPlannedNet is RunGenericPlannedNet.
func RunStarPlannedNet(sp *StarPlan, q *query.Query, db *data.Database, p int, seed int64, capBits float64, env engine.Env) *engine.RunRecord {
	return RunGenericPlannedNet(sp, q, db, p, seed, capBits, env)
}
