// Package core implements the paper's primary contribution: the HyperCube
// (HC) one-round algorithm of Section 3.1. Servers are organized as a
// k-dimensional grid [p1]×…×[pk] with one dimension per query variable;
// each input tuple is hashed on the variables of its atom and replicated to
// the destination subcube D(t) of equation (9); every server then evaluates
// the query locally. Correctness follows because the server
// (h1(a1),…,hk(ak)) sees every atom of a potential output tuple (a1,…,ak).
//
// Share exponents come from LP (10) (skew-free optimal, Theorem 3.4) or
// LP (18) (skew-oblivious worst case, Section 4.1), and are rounded to
// integer shares with product ≤ p.
package core

import (
	"fmt"
	"math"
	"strings"

	"mpcquery/internal/aggregate"
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/hashing"
	"mpcquery/internal/localjoin"
	"mpcquery/internal/packing"
	"mpcquery/internal/query"
)

// Mode selects which share-optimization LP drives the plan.
type Mode int

// Share optimization modes.
const (
	// SkewFree optimizes for low-skew data via LP (10); optimal for
	// matching databases (Theorem 3.4).
	SkewFree Mode = iota
	// SkewOblivious optimizes the worst case over all data distributions
	// via LP (18) (Section 4.1).
	SkewOblivious
)

// Plan is an executable HyperCube configuration for a query.
type Plan struct {
	Query     *query.Query
	Mode      Mode
	P         int       // servers requested
	Shares    []int     // integer share per variable (Π ≤ P)
	Exponents []float64 // fractional share exponents from the LP
	Lambda    float64   // optimal load exponent λ = log_p L

	StatsBits []float64 // M_j per atom, bits
}

// GridP returns the number of servers actually used, Πᵢ shares.
func (pl *Plan) GridP() int {
	g := 1
	for _, s := range pl.Shares {
		g *= s
	}
	return g
}

// PredictedLoadBits returns the LP's load prediction L = p^λ in bits. A
// single server (p ≤ 1) receives the whole input, where log_p L is
// undefined.
func (pl *Plan) PredictedLoadBits() float64 {
	if pl.P <= 1 {
		total := 0.0
		for _, m := range pl.StatsBits {
			total += m
		}
		return total
	}
	return math.Pow(float64(pl.P), pl.Lambda)
}

func (pl *Plan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "HyperCube plan for %s on p=%d\n", pl.Query, pl.P)
	for i, v := range pl.Query.Vars() {
		fmt.Fprintf(&b, "  share(%s) = %d (exponent %.4f)\n", v, pl.Shares[i], pl.Exponents[i])
	}
	fmt.Fprintf(&b, "  grid uses %d servers, predicted load %.0f bits", pl.GridP(), pl.PredictedLoadBits())
	return b.String()
}

// NewPlan builds a HyperCube plan for q over a database with the given
// per-atom sizes in bits, using p servers.
func NewPlan(q *query.Query, statsBits []float64, p int, mode Mode) *Plan {
	var sh packing.Shares
	if mode == SkewOblivious {
		sh = packing.SkewShareExponents(q, statsBits, float64(p))
	} else {
		sh = packing.ShareExponents(q, statsBits, float64(p))
	}
	shares := packing.IntegerShares(sh.Exponents, p)
	return &Plan{
		Query:     q,
		Mode:      mode,
		P:         p,
		Shares:    shares,
		Exponents: sh.Exponents,
		Lambda:    sh.Lambda,
		StatsBits: append([]float64(nil), statsBits...),
	}
}

// PlanForDatabase computes statistics from db and builds a plan.
func PlanForDatabase(q *query.Query, db *data.Database, p int, mode Mode) *Plan {
	return NewPlan(q, StatsBits(q, db), p, mode)
}

// StatsBits returns M_j (bits) for each atom of q in db.
func StatsBits(q *query.Query, db *data.Database) []float64 {
	stats := make([]float64, q.NumAtoms())
	for j, a := range q.Atoms {
		stats[j] = db.Get(a.Name).SizeBits(db.N)
	}
	return stats
}

// Run plans and executes the HyperCube algorithm for q on db with p servers.
func Run(q *query.Query, db *data.Database, p int, seed int64, mode Mode) *engine.RunRecord {
	return RunPlan(PlanForDatabase(q, db, p, mode), db, seed)
}

// PlanWithShares wraps explicit integer shares (one per variable) in a Plan
// (no LP, zero exponents).
func PlanWithShares(q *query.Query, db *data.Database, shares []int) *Plan {
	return &Plan{Query: q, P: prodInt(shares), Shares: append([]int(nil), shares...),
		Exponents: make([]float64, len(shares)), StatsBits: StatsBits(q, db)}
}

func prodInt(xs []int) int {
	p := 1
	for _, x := range xs {
		p *= x
	}
	return p
}

// RunPlan executes a prepared plan on db with the given hash seed, under
// the partitioned-input model (each relation dealt round-robin).
func RunPlan(pl *Plan, db *data.Database, seed int64) *engine.RunRecord {
	return RunPlanWithCapNet(pl, db, seed, 0, engine.Env{})
}

// RunPlanWithCapNet is RunPlan with a declared load cap (Section 2.1's abort
// semantics): when capBits > 0 and any server receives more, the record's
// Aborted reports it. The output is still computed (the caller decides
// whether to retry with a fresh hash seed). Round delivery goes through env
// (the zero Env = in-process, untraced). Every strategy path threads its
// transport exclusively through the full forms — the algorithms themselves
// are transport-oblivious, as the delivery seam requires.
func RunPlanWithCapNet(pl *Plan, db *data.Database, seed int64, capBits float64, env engine.Env) *engine.RunRecord {
	return RunPlanAggregateNet(pl, db, seed, capBits, nil, env)
}

// RunPlanAggregateNet executes pl and then computes agg over the join output
// with one extra communication round: every server folds (pushdown) or
// projects (no pushdown) its local join output into (group key..., value)
// rows, routes them by key hash, and destinations fold their received rows
// into the final groups. The record's Output is the canonical aggregate
// relation — (group key..., value) tuples sorted lexicographically, the
// synthetic key of a global aggregate dropped — identical whether or not
// pushdown ran; only the second round's bits differ. A nil agg is the plain
// join (one round).
func RunPlanAggregateNet(pl *Plan, db *data.Database, seed int64, capBits float64, agg *aggregate.Plan, env engine.Env) *engine.RunRecord {
	return runPlanSeeded(pl, db, seed, capBits, agg, (*engine.Cluster).SeedPartitioned, env)
}

// seeding places the free initial input on a fresh cluster of gp servers; the
// partitioned-input model of Section 2.1 is Cluster.SeedPartitioned.
type seeding func(cluster *engine.Cluster, gp int, q *query.Query, db *data.Database)

// RunPlanInputServers executes under the input-server model of Section 2.1:
// relation S_j starts wholly on server j mod p. HyperCube routing depends
// only on tuple content, so the received loads are identical to the
// partitioned-input run — the equivalence the paper uses to transfer its
// lower bounds between the two models.
func RunPlanInputServers(pl *Plan, db *data.Database, seed int64) *engine.RunRecord {
	return runPlanSeeded(pl, db, seed, 0, nil, func(cluster *engine.Cluster, gp int, q *query.Query, db *data.Database) {
		for j, a := range q.Atoms {
			rel := db.Get(a.Name)
			cluster.SeedBatch(j%gp, j, rel.Arity, rel.Vals())
		}
	}, engine.Env{})
}

func runPlanSeeded(pl *Plan, db *data.Database, seed int64, capBits float64, agg *aggregate.Plan, seedInput seeding, env engine.Env) *engine.RunRecord {
	q := pl.Query
	grid := hashing.NewGrid(pl.Shares)
	gp := grid.P()
	family := hashing.NewFamily(seed, q.NumVars())
	cluster := engine.NewClusterEnv(env, gp, data.BitsPerValue(db.N))
	defer cluster.Release()
	if capBits > 0 {
		cluster.SetLoadCap(capBits)
	}

	seedInput(cluster, gp, q, db)
	layout := hashing.Layout{hashing.NewBlock(0, grid, q.AtomDims())}
	hyperCubeShuffle(cluster, "hypercube-shuffle", layout[0], family)

	// Computation phase: local evaluation on every server (no
	// communication), and the aggregate tail when agg is set. The shuffle's
	// block doubles as the provenance of what each server received, so the
	// servers of a route's subcube, which hold the same fragment, share its
	// index builds.
	out, saved := localjoin.Output(cluster, q, env, layout, agg)
	rec := cluster.Record(out, InputBits(q, db))
	rec.AggregateBitsSaved = saved
	return rec
}

// InputBits is the input size Σ_j M_j of q's atoms in db, in bits.
func InputBits(q *query.Query, db *data.Database) float64 {
	total := 0.0
	for _, a := range q.Atoms {
		total += db.Get(a.Name).SizeBits(db.N)
	}
	return total
}

// hyperCubeShuffle runs the HyperCube communication round: every server
// routes its local tuples (message kind = atom index) to their destination
// subcubes D(t) of equation (9) in block.
func hyperCubeShuffle(cluster *engine.Cluster, name string, block *hashing.Block, family *hashing.Family) {
	cluster.Round(name, func(s int, inbox *engine.Inbox, emit *engine.Emitter) {
		inbox.EachBatch(func(b engine.Batch) {
			for off := 0; off < len(b.Vals); off += b.Arity {
				emit.EmitRouted(block, family, b.Kind, b.Vals[off:off+b.Arity])
			}
		})
	})
}

// SequentialAnswer computes q(db) on one node — the ground truth for
// validating parallel runs.
func SequentialAnswer(q *query.Query, db *data.Database) *data.Relation {
	rels := make(map[string]*data.Relation, q.NumAtoms())
	for _, a := range q.Atoms {
		rels[a.Name] = db.Get(a.Name)
	}
	return localjoin.Evaluate(q, rels)
}

// MaxLoadOverSeeds runs the plan with several hash seeds and reports the
// worst observed load — the experimental analogue of the paper's
// with-high-probability statements.
func MaxLoadOverSeeds(pl *Plan, db *data.Database, seeds []int64) float64 {
	worst := 0.0
	for _, s := range seeds {
		worst = max(worst, RunPlan(pl, db, s).MaxLoadBits())
	}
	return worst
}
