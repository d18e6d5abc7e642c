// Package skew implements the skew-aware one-round algorithms of
// Section 4.2, which assume the servers know the heavy hitters and their
// (approximate) frequencies:
//
//   - the star-query algorithm of Section 4.2.1 (which covers the simple
//     join as the k=2 case): light tuples run vanilla HyperCube hashed on
//     z, while each heavy hitter h gets a dedicated server group computing
//     the residual Cartesian product with servers allocated proportionally
//     to Π_j M_j(h)^{u_j} over the packings u ∈ {0,1}^ℓ;
//   - the generic heavy/light pattern algorithm (generic.go), which runs
//     the triangle of Section 4.2.2 and every other connected query.
//
// Following the paper, the algorithms may use Θ(p) servers — a constant
// factor more than p (the paper's own accounting allows (ℓ+1)·|pk(q_z)|·p).
// Loads are compared against bounds parameterized by the requested p.
package skew

import (
	"sort"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/hashing"
	"mpcquery/internal/localjoin"
	"mpcquery/internal/query"
)

// RunStar computes the star query T_k (atoms S_j(z, x_j)) on db with a
// budget of p servers, treating as heavy every z-value with frequency
// ≥ m_j/p in some relation (the paper's threshold).
//
// Server layout: servers [0, p) hash light tuples on z; each heavy hitter h
// gets a dedicated block of p_h servers after that, with Σ_h p_h ≈ p
// allocated proportionally to Σ_{∅≠I⊆[ℓ]} Π_{j∈I} M_j(h) (the paper's
// per-packing allocation, summed over the packing vertices {0,1}^ℓ\0).
func RunStar(q *query.Query, db *data.Database, p int, seed int64) *engine.RunRecord {
	return RunStarPlannedNet(PrepareStar(q, db, p), q, db, p, seed, 0, engine.Env{})
}

// StarPlan is the reusable, seed-independent part of a star-query run: the
// heavy-hitter set and the per-heavy-hitter server blocks with their
// residual-share grids, derived from frequency statistics. A StarPlan is
// immutable after preparation and safe for concurrent RunStarPlannedNet calls,
// so a service can prepare it once per (query shape, database) and replay it
// for every arriving query.
type StarPlan struct {
	zCols        []int
	heavy        []int64
	blocks       map[int64]*hashing.Block // heavy hitter -> its residual block
	layout       hashing.Layout           // the light block, then the heavy ones
	totalServers int
}

// HeavyHitters returns the number of z-values handled by dedicated blocks.
func (sp *StarPlan) HeavyHitters() int { return len(sp.heavy) }

// ServersUsed returns the total servers the layout spans (light + blocks).
func (sp *StarPlan) ServersUsed() int { return sp.totalServers }

// PrepareStar computes the star layout from exact column frequencies — the
// statistics phase of RunStar, split out so its result can be cached. Every
// atom's z column is sorted once (concurrently) and only its runs of at least
// starFloor reach a table: at most p values per atom, however many it has.
func PrepareStar(q *query.Query, db *data.Database, p int) *StarPlan {
	zName := q.Atoms[0].Vars[0]
	k := q.NumAtoms()
	cols := make([][]int64, k)
	engine.ParallelFor(k, func(j int) {
		cols[j] = data.SortedColumn(db.Get(q.Atoms[j].Name), colOf(q.Atoms[j], zName))
	})
	// A hitter of one atom weighs in with its exact count in every atom,
	// also where it is light, so those counts are read off the sorted columns.
	freqs := make([]map[int64]int, k)
	for j := range freqs {
		freqs[j] = make(map[int64]int)
	}
	for _, col := range cols {
		for _, run := range data.Runs(col, starFloor(len(col), p)) {
			for j := range cols {
				freqs[j][run.Value] = data.CountOf(cols[j], run.Value)
			}
		}
	}
	return PrepareStarWithFrequencies(q, db, p, freqs)
}

// starFloor is the degree from which a z-value of an m-tuple relation gets a
// dedicated block: the paper's m/p, and never a value that occurs once.
func starFloor(m, p int) int { return max(2, m/p) }

// PrepareStarWithFrequencies computes the star layout from explicit
// z-frequency statistics, exact or estimated (e.g. by StatsSpec.RunNet's
// sampling protocol). Statistics only drive heavy-hitter selection and
// server allocation; correctness never depends on their accuracy, so
// sampled estimates are safe — bad estimates only cost load.
func PrepareStarWithFrequencies(q *query.Query, db *data.Database, p int, freqs []map[int64]int) *StarPlan {
	k := q.NumAtoms()
	zName := q.Atoms[0].Vars[0]

	zCols := make([]int, k)
	heavySet := make(map[int64]bool)
	for j, a := range q.Atoms {
		zCols[j] = colOf(a, zName)
		thr := starFloor(db.Get(a.Name).NumTuples(), p)
		for v, c := range freqs[j] {
			if c >= thr {
				heavySet[v] = true
			}
		}
	}
	heavy := make([]int64, 0, len(heavySet))
	for v := range heavySet {
		heavy = append(heavy, v)
	}
	sort.Slice(heavy, func(i, j int) bool { return heavy[i] < heavy[j] })

	// Per-heavy-hitter server allocation.
	bpv := data.BitsPerValue(db.N)
	weight := func(h int64) float64 {
		// Σ over nonempty I ⊆ [ℓ] of Π_{j∈I} M_j(h).
		total := 0.0
		for mask := 1; mask < 1<<uint(k); mask++ {
			prod := 1.0
			for j := 0; j < k; j++ {
				if mask&(1<<uint(j)) != 0 {
					prod *= float64(freqs[j][h]) * float64(2*bpv)
				}
			}
			total += prod
		}
		return total
	}
	totalW := 0.0
	for _, h := range heavy {
		totalW += weight(h)
	}
	// Light block: a hash partition on z — dimension k, of the whole share
	// p — across servers [0, p).
	lightShares := make([]int, k+1)
	lightDims := make([][]int, k)
	for j := range lightDims {
		lightShares[j] = 1
		lightDims[j] = []int{-1, -1}
		lightDims[j][zCols[j]] = k
	}
	lightShares[k] = p
	layout := hashing.Layout{hashing.NewBlock(0, hashing.NewGrid(lightShares), lightDims)}
	blocks := make(map[int64]*hashing.Block, len(heavy))
	offset := p // heavy blocks start after the light servers
	for _, h := range heavy {
		ph := 1
		if totalW > 0 {
			ph = int(float64(p) * weight(h) / totalW)
			if ph < 1 {
				ph = 1
			}
		}
		// Residual query: Cartesian product of the ℓ unary fibers; shares
		// are proportional to the fiber sizes via the share LP.
		stats := make([]float64, k)
		for j := 0; j < k; j++ {
			s := float64(freqs[j][h]) * float64(bpv)
			if s < 1 {
				s = 1
			}
			stats[j] = s
		}
		// Atom j's tuples fix dimension j to the hash of their x_j value
		// (binary atoms: the non-z column); all other dimensions are free.
		dims := make([][]int, k)
		for j := range dims {
			dims[j] = []int{-1, -1}
			dims[j][1-zCols[j]] = j
		}
		b := hashing.NewBlock(offset, hashing.NewGrid(residualShares(stats, ph)), dims)
		blocks[h] = b
		layout = append(layout, b)
		offset += b.Grid.P()
	}
	return &StarPlan{zCols: zCols, heavy: heavy, blocks: blocks, layout: layout, totalServers: offset}
}

// RunStarPlannedNet executes the star algorithm's data round under a
// prepared layout: routing, local evaluation and metering, with the
// statistics phase already paid for (or cached) by the caller. Running a
// prepared plan is bit-identical to the unprepared path — preparation only
// moves work, never accounting. capBits is a declared per-round load cap in
// bits (Section 2.1's abort semantics; 0 = none); round delivery goes
// through env (the zero Env = in-process, untraced).
func RunStarPlannedNet(sp *StarPlan, q *query.Query, db *data.Database, p int, seed int64, capBits float64, env engine.Env) *engine.RunRecord {
	k := q.NumAtoms()
	zCols, blocks, light, totalServers := sp.zCols, sp.blocks, sp.layout[0], sp.totalServers
	bpv := data.BitsPerValue(db.N)

	cluster := engine.NewClusterEnv(env, totalServers, bpv)
	defer cluster.Release()
	if capBits > 0 {
		cluster.SetLoadCap(capBits)
	}
	cluster.SeedPartitioned(p, q, db)

	family := hashing.NewFamily(seed, k+1) // dim k hashes z for the light part

	cluster.Round("skew-star", func(s int, inbox *engine.Inbox, emit *engine.Emitter) {
		inbox.EachBatch(func(bt engine.Batch) {
			j := bt.Kind
			for off := 0; off < len(bt.Vals); off += bt.Arity {
				tuple := bt.Vals[off : off+bt.Arity]
				// Heavy: replicate within h's block; light: hash-partition on
				// z across the light servers.
				b, isHeavy := blocks[tuple[zCols[j]]]
				if !isHeavy {
					b = light
				}
				emit.EmitRouted(b, family, j, tuple)
			}
		})
	})

	// Local evaluation everywhere: light servers and heavy blocks evaluate
	// the same star query over their fragments, and the servers of one
	// subcube of a block's route share that atom's index builds.
	out := localjoin.Output(cluster, q, env, sp.layout, nil)

	rec := cluster.Record(out, inputBits(q, db))
	rec.HeavyHitters = len(sp.heavy)
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

// residualShares computes integer shares for the residual Cartesian product
// with the given per-fiber sizes: share_j ∝ M_j(h), normalized to Π ≤ ph.
// This matches the optimal HC shares for a product of unary relations.
func residualShares(stats []float64, ph int) []int {
	k := len(stats)
	if ph < 1 {
		ph = 1
	}
	// Exponents e_j ∝ log M_j(h) subject to Σ e_j = 1 is NOT the optimum for
	// products; the share LP gives share_j ∝ M_j(h) / L where L is the
	// common per-fiber load. Solve directly: find L such that
	// Π_j max(1, M_j/L) = ph by bisection on L.
	lo, hi := 1e-9, 0.0
	for _, s := range stats {
		if s > hi {
			hi = s
		}
	}
	if hi <= lo {
		hi = 1
	}
	prodAt := func(l float64) float64 {
		prod := 1.0
		for _, s := range stats {
			f := s / l
			if f < 1 {
				f = 1
			}
			prod *= f
		}
		return prod
	}
	for iter := 0; iter < 100; iter++ {
		mid := (lo + hi) / 2
		if prodAt(mid) > float64(ph) {
			lo = mid
		} else {
			hi = mid
		}
	}
	l := hi
	shares := make([]int, k)
	prod := 1
	for j, s := range stats {
		sh := int(s / l)
		if sh < 1 {
			sh = 1
		}
		shares[j] = sh
		prod *= sh
	}
	// Trim if integer rounding overshot the budget.
	for prod > ph {
		big := 0
		for j := 1; j < k; j++ {
			if shares[j] > shares[big] {
				big = j
			}
		}
		if shares[big] == 1 {
			break
		}
		prod = prod / shares[big] * (shares[big] - 1)
		shares[big]--
	}
	return shares
}

func colOf(a query.Atom, v string) int {
	for c, w := range a.Vars {
		if w == v {
			return c
		}
	}
	panic("skew: variable " + v + " not in atom " + a.Name)
}
