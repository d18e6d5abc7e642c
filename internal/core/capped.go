package core

import (
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/localjoin"
	"mpcquery/internal/skew"
)

// CappedResult reports a load-capped HyperCube run: servers accept at most
// capBits of incoming data and drop the rest, modeling an algorithm bound
// to maximum load L. Theorem 3.5 predicts the fraction of answers such an
// algorithm can report: at most (4L/(Σu_j·L(u,M,p)))^{Σu_j} of the expected
// output, so a cap below L_lower forces a vanishing fraction as p grows —
// the experimental face of the one-round lower bound.
type CappedResult struct {
	Plan        *Plan
	CapBits     float64
	AnswerCount int     // answers found under the cap
	FullCount   int     // answers of the uncapped run
	Fraction    float64 // AnswerCount/FullCount
	DroppedBits float64 // bits refused across all servers
}

// RunPlanCapped executes the plan routing normally but lets every server
// keep only the first capBits of what it receives (the rest is dropped
// before local evaluation). The fraction of the true answer set that
// survives is the quantity bounded by Theorem 3.5.
func RunPlanCapped(pl *Plan, db *data.Database, seed int64, capBits float64) *CappedResult {
	q, gp := pl.Query, skew.GridPlan(pl.Query, db, pl.Shares)
	n, bpv := gp.ServersUsed(), data.BitsPerValue(db.N)
	cluster := engine.NewCluster(n, bpv)
	defer cluster.Release()
	cluster.SeedPartitioned(n, q, db)
	gp.Shuffle(cluster, seed)

	// Computation phase under the cap: each server accepts messages in
	// arrival order until capBits is exhausted. Budget cuts make fragments
	// diverge across servers, so no index cache — just per-worker scratch.
	outputs := make([]*data.Relation, n)
	dropped := make([]float64, n)
	scratches := localjoin.NewWorkerScratches()
	cluster.Compute(func(s int, ib *engine.Inbox, w int) {
		sc := scratches.Worker(w)
		frag := sc.Fragments(q)
		budget := capBits
		ib.Each(func(kind int, tuple []int64) {
			cost := float64(len(tuple) * bpv)
			if cost > budget {
				dropped[s] += cost
				return
			}
			budget -= cost
			frag[kind].AppendTuple(tuple)
		})
		outputs[s] = sc.EvaluateAtoms(q, frag, nil)
	})
	scratches.Release()

	answers := 0
	droppedTotal := 0.0
	for s := 0; s < n; s++ {
		answers += outputs[s].NumTuples()
		droppedTotal += dropped[s]
	}

	full := RunPlan(pl, db, seed)
	fraction := 1.0
	if full.Output.NumTuples() > 0 {
		fraction = float64(answers) / float64(full.Output.NumTuples())
	}
	return &CappedResult{
		Plan:        pl,
		CapBits:     capBits,
		AnswerCount: answers,
		FullCount:   full.Output.NumTuples(),
		Fraction:    fraction,
		DroppedBits: droppedTotal,
	}
}
