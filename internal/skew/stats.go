package skew

import (
	"math/rand"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/query"
)

// StatsResult reports the one-round distributed statistics protocol.
type StatsResult struct {
	// PerAtom holds one value → estimated-global-frequency map per
	// (relation, column) pair of the StatsSpec, in input order.
	PerAtom []map[int64]int
	// Round is the cost of the protocol's one genuine MPC round, its abort
	// flag set when a declared load cap was exceeded.
	Round engine.RoundStats
}

// statsBitsPerValue is the fixed width charged per broadcast value:
// candidates travel as (value, count) pairs of int64s, a generous width
// that upper-bounds ⌈log₂ n⌉ for any int64 domain.
const statsBitsPerValue = 64

// StatsSpec pins down one invocation of the sampling protocol: the relation
// columns to profile and the per-relation candidate thresholds. It exists so
// a caching layer can derive the exact same protocol inputs as the inline
// path and replay (or skip) the round deterministically.
type StatsSpec struct {
	Rels       []*data.Relation
	Cols       []int
	Thresholds []int
}

// StarStatsSpec returns the sampling spec of a star query, the one the
// skewed-star-sampled strategy runs: every atom's z-column, with the
// conservative m_j/(4p) candidate cut.
func StarStatsSpec(q *query.Query, db *data.Database, p int) StatsSpec {
	zName := q.Atoms[0].Vars[0]
	l := q.NumAtoms()
	spec := StatsSpec{
		Rels:       make([]*data.Relation, l),
		Cols:       make([]int, l),
		Thresholds: make([]int, l),
	}
	for j, a := range q.Atoms {
		spec.Rels[j] = db.Get(a.Name)
		spec.Cols[j] = colOf(a, zName)
		thr := spec.Rels[j].NumTuples() / (4 * p) // conservative candidate cut
		if thr < 2 {
			thr = 2
		}
		spec.Thresholds[j] = thr
	}
	return spec
}

// Run executes the one-round sampling protocol for the spec. The result is
// deterministic in (spec, p, sampleSize, seed, capBits), which is what makes
// it cacheable: replaying a cached StatsResult and re-running the protocol
// yield identical estimates and identical bit charges.
func (spec StatsSpec) Run(p, sampleSize int, seed int64, capBits float64) *StatsResult {
	return spec.RunNet(p, sampleSize, seed, capBits, engine.Env{})
}

// RunNet executes the sampling protocol for the spec: it estimates per-value
// frequencies of the spec's ℓ relation columns in ONE MPC round on a single
// cluster, making executable the paper's remark that heavy-hitter statistics
// "can be easily obtained in advance from small samples of the input"
// (Section 1):
//
//   - every relation is partitioned over the same p servers (free, per the
//     model), tagged with its atom index as the message kind;
//   - each server samples up to sampleSize of its local tuples per
//     relation, counts the sampled values, scales to its partition size,
//     and broadcasts every candidate whose scaled estimate reaches that
//     relation's candidate threshold, tagged with the atom's kind;
//   - every server sums the broadcast estimates per atom, so afterwards all
//     servers agree on the (approximate) statistics, as the model assumes.
//
// Because all ℓ atoms share one communication round, a server's load is the
// SUM of the candidate traffic across atoms — the honest accounting for the
// protocol (running ℓ separate rounds and taking the max would understate
// both cost dimensions). The communication is O(p · candidates) values per
// server: with the paper's m/p heavy-hitter threshold there are at most p
// true candidates per relation and server, keeping the statistics round's
// load well below the data rounds'.
//
// capBits > 0 declares a load cap for the round (0 = none). Round delivery
// goes through env (the zero Env = in-process, untraced) — the sampling
// round's broadcast traffic crosses the wire like any data round.
func (spec StatsSpec) RunNet(p, sampleSize int, seed int64, capBits float64, env engine.Env) *StatsResult {
	l := len(spec.Rels)
	cluster := engine.NewClusterEnv(env, p, statsBitsPerValue)
	defer cluster.Release()
	if capBits > 0 {
		cluster.SetLoadCap(capBits)
	}
	cluster.SeedRelations(p, spec.Rels)
	st := cluster.Round("stats-sample", func(s int, inbox *engine.Inbox, emit *engine.Emitter) {
		// Collect each atom's local tuples (batch views — seeding coalesces
		// each atom's round-robin share into contiguous batches).
		perKind := make([][]engine.Batch, l)
		locals := make([]int, l)
		inbox.EachBatch(func(b engine.Batch) {
			perKind[b.Kind] = append(perKind[b.Kind], b)
			locals[b.Kind] += b.NumTuples()
		})
		var rng *rand.Rand // seeded on the first draw: seeding costs more than counting a share
		var vals []int64   // one atom's sampled values, reused across atoms
		pair := make([]int64, 2)
		for j := 0; j < l; j++ {
			local := locals[j]
			if local == 0 {
				continue
			}
			col := spec.Cols[j]
			n := min(sampleSize, local)
			vals = vals[:0]
			if n == local {
				for _, b := range perKind[j] {
					for i := 0; i < b.NumTuples(); i++ {
						vals = append(vals, b.Tuple(i)[col])
					}
				}
			} else {
				if rng == nil {
					rng = rand.New(rand.NewSource(seed + int64(s)))
				}
				at := func(i int) []int64 {
					for _, b := range perKind[j] {
						if i < b.NumTuples() {
							return b.Tuple(i)
						}
						i -= b.NumTuples()
					}
					panic("skew: sample index out of range")
				}
				for t := 0; t < n; t++ {
					vals = append(vals, at(rng.Intn(local))[col])
				}
			}
			scale := float64(local) / float64(n)
			// Broadcast candidates in ascending value order: emission order
			// reaches every inbox (and, distributed, the wire), so it must be
			// a pure function of the sampled counts — Heavy's runs are. A
			// floor above n finds none.
			for _, run := range data.Heavy(vals, 1, 0, candidateFloor(spec.Thresholds[j], scale, n)) {
				pair[0], pair[1] = run.Value, int64(float64(run.Count)*scale)
				emit.EmitTuple(engine.Broadcast, j, pair)
			}
		}
	})
	// Every server received the same broadcasts: read them from an owned
	// server's inbox, or, owning none, from the round's staging.
	each := cluster.EachBroadcast
	if lo, hi := cluster.Owned(); lo < hi {
		each = cluster.Inbox(lo).Each
	}
	perAtom := make([]map[int64]int, l)
	for j := range perAtom {
		perAtom[j] = make(map[int64]int)
	}
	each(func(kind int, tuple []int64) {
		perAtom[kind][tuple[0]] += int(tuple[1])
	})
	return &StatsResult{PerAtom: perAtom, Round: st}
}

// candidateFloor returns the smallest count c ≥ 1 of a sample of n values
// whose scaled estimate int(c·scale) reaches threshold, or a count above n
// when none does. The estimate only grows with the count, so the runs at
// least this long are exactly the candidates. The search starts one below
// threshold/scale, which rounding puts at most one above the answer.
func candidateFloor(threshold int, scale float64, n int) int {
	c := max(1, int(float64(threshold)/scale)-1)
	for c <= n && int(float64(c)*scale) < threshold {
		c++
	}
	return c
}

// AddStatsCharges charges the statistics round to a data-round record: a
// copy of the round is listed first, where the protocol ran it, so it adds
// to the rounds and the total and takes part in the load maximum and the
// abort flag. No seconds are added — a cache hit spent none. This is THE
// accounting seam between "cached" and "charged": a service may skip
// re-executing the sampling round when it holds the StatsResult, but it must
// still pass the cached result through here so the Report charges the bits
// the protocol would have moved — the paper's cost model meters
// communication of the algorithm, not of the implementation's memoization.
// The cached StatsResult is not modified.
func AddStatsCharges(rec *engine.RunRecord, st *StatsResult) {
	rec.Rounds = append([]engine.RoundStats{st.Round}, rec.Rounds...)
}

func colOf(a query.Atom, v string) int {
	for c, w := range a.Vars {
		if w == v {
			return c
		}
	}
	panic("skew: variable " + v + " not in atom " + a.Name)
}
