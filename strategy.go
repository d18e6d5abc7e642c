package mpcquery

import (
	"fmt"
	"math"
	"slices"

	"mpcquery/internal/advisor"
	"mpcquery/internal/core"
	"mpcquery/internal/engine"
	"mpcquery/internal/multiround"
	"mpcquery/internal/query"
	"mpcquery/internal/skew"
)

// ExecContext carries everything a Strategy needs to execute one query: the
// validated query and database plus the knobs set through RunOptions.
type ExecContext struct {
	Query   *Query
	DB      *Database
	Servers int
	Seed    int64

	LoadCapBits float64 // 0 = no cap (WithLoadCap)
	RoundBudget int     // max rounds for Auto, 0 = unlimited (WithRoundBudget)

	// Aggregate is the aggregate attached by WithAggregate (nil for plain
	// join runs); AggPushdown selects pre-shuffle partial aggregation.
	// Every built-in strategy computes it. Run refuses WithAggregate for
	// any other Strategy, so an external Execute never sees it set.
	Aggregate   *AggregateSpec
	AggPushdown bool

	// cache is the Service's artifact cache handle; nil for plain Run.
	// Built-in strategies consult it through cached; caching is
	// transparent to external Strategy implementations.
	cache *execCache

	// env is the execution environment every cluster is created against:
	// the delivery transport (nil Net = in-process, the default; set by
	// WithRuntime) and the trace sink (nil Trace = tracing off; set by
	// WithTrace).
	env engine.Env
}

// Strategy is one executable point in the paper's rounds/load tradeoff
// space. Implementations adapt the internal algorithms — one-round
// HyperCube variants, the skew-aware algorithms of Section 4.2, the
// multi-round plans of Section 5 — to the one unified Report.
//
// Execute must return an error rather than panic; Run additionally guards
// the boundary by converting any escaped panic into a *StrategyError.
type Strategy interface {
	Name() string
	Execute(ctx ExecContext) (*Report, error)
}

// queryProvider is implemented by strategies that carry their own query
// (SelfJoin), letting Run(nil, db, ...) work.
type queryProvider interface {
	provideQuery() *Query
}

// aggregateCapable marks the strategies with an aggregate path: every
// built-in one. Run refuses WithAggregate for any strategy without the mark,
// so a strategy that would silently ignore ExecContext.Aggregate — and
// return plain join tuples mislabeled as aggregate rows — can never execute
// one. The method is deliberately unexported: external Strategy
// implementations cannot opt in yet, and get ErrAggregateUnsupported.
type aggregateCapable interface {
	supportsAggregate()
}

// ---- one-round HyperCube ---------------------------------------------------

type hyperCubeStrategy struct {
	mode core.Mode
}

// HyperCube returns the default strategy: the one-round HyperCube algorithm
// of Section 3.1 with LP-optimal skew-free shares (Theorem 3.4).
func HyperCube() Strategy { return hyperCubeStrategy{mode: core.SkewFree} }

// HyperCubeOblivious returns the one-round HyperCube strategy with the
// skew-oblivious worst-case shares of LP (18) (Section 4.1).
func HyperCubeOblivious() Strategy { return hyperCubeStrategy{mode: core.SkewOblivious} }

func (s hyperCubeStrategy) Name() string {
	if s.mode == core.SkewOblivious {
		return "hypercube-oblivious"
	}
	return "hypercube"
}

func (hyperCubeStrategy) supportsAggregate() {}

// hyperCubePlan is a cached HyperCube plan: the share plan and the grid it
// runs as.
type hyperCubePlan struct {
	plan *core.Plan
	grid *skew.GenericPlan
}

func (s hyperCubeStrategy) Execute(ctx ExecContext) (*Report, error) {
	hc := ctx.cached(fmt.Sprintf("hc|m%d", s.mode), func() any {
		plan := core.PlanForDatabase(ctx.Query, ctx.DB, ctx.Servers, s.mode)
		return hyperCubePlan{plan, skew.GridPlan(ctx.Query, ctx.DB, plan.Shares)}
	}).(hyperCubePlan)
	rep := runLayout(s.Name(), ctx, hc.grid, nil, hc.plan.Shares)
	rep.PredictedLoadBits = hc.plan.PredictedLoadBits()
	return rep, nil
}

// ---- explicit shares -------------------------------------------------------

type sharesStrategy struct {
	shares []int
}

// HyperCubeShares returns a one-round HyperCube strategy with explicit
// per-variable integer shares (one per query variable, in Query.Vars()
// order) instead of LP-optimal ones — e.g. all shares on the join variable
// reproduces the naive parallel hash join of Example 4.1.
func HyperCubeShares(shares ...int) Strategy {
	return sharesStrategy{shares: append([]int(nil), shares...)}
}

func (s sharesStrategy) Name() string { return "hypercube-shares" }

func (sharesStrategy) supportsAggregate() {}

func (s sharesStrategy) Execute(ctx ExecContext) (*Report, error) {
	if got, want := len(s.shares), ctx.Query.NumVars(); got != want {
		return nil, fmt.Errorf("mpcquery: HyperCubeShares: %d shares for %d variables", got, want)
	}
	for _, sh := range s.shares {
		if sh < 1 {
			return nil, fmt.Errorf("mpcquery: HyperCubeShares: shares must be ≥ 1, got %v", s.shares)
		}
	}
	return runLayout(s.Name(), ctx, skew.GridPlan(ctx.Query, ctx.DB, s.shares), nil, s.shares), nil
}

// ---- self-joins ------------------------------------------------------------

type selfJoinStrategy struct {
	name  string
	atoms []Atom
}

// SelfJoin returns a strategy evaluating a query that repeats relation
// names (footnote 2 of the paper), e.g. paths E(x,y), E(y,z) over one edge
// relation, with the one-round HyperCube algorithm. The strategy carries
// its own query, so Run may be called with a nil *Query:
//
//	Run(nil, db, WithStrategy(SelfJoin("paths", atoms...)))
func SelfJoin(name string, atoms ...Atom) Strategy {
	return selfJoinStrategy{name: name, atoms: append([]Atom(nil), atoms...)}
}

func (s selfJoinStrategy) Name() string { return "hypercube-selfjoin" }

func (selfJoinStrategy) supportsAggregate() {}

func (s selfJoinStrategy) provideQuery() *Query {
	q, _ := core.DesugarSelfJoins(s.name, s.atoms)
	return q
}

func (s selfJoinStrategy) Execute(ctx ExecContext) (*Report, error) {
	if len(s.atoms) == 0 {
		return nil, fmt.Errorf("mpcquery: SelfJoin: no atoms")
	}
	for _, a := range s.atoms {
		if _, ok := ctx.DB.Relations[a.Name]; !ok {
			return nil, fmt.Errorf("mpcquery: SelfJoin: %w: %q", ErrMissingRelation, a.Name)
		}
	}
	// HyperCube on the renamed query over renamed views of the relations.
	// The cache is scoped to the request's query and database, not to
	// the view, so the plan is not cached.
	ctx.Query, ctx.DB = core.SelfJoinView(s.name, s.atoms, ctx.DB)
	ctx.cache = nil
	rep, err := HyperCube().Execute(ctx)
	if err != nil {
		return nil, err
	}
	rep.Strategy = s.Name()
	return rep, nil
}

// ---- skew-aware one-round strategies ---------------------------------------

type skewedStarStrategy struct {
	sampleSize int
}

// SkewedStarSampled returns the Section 4.2.1 heavy-hitter strategy for star
// queries T_k (which covers the simple join as k=2) with statistics gathered
// by the one-round sampling protocol instead of an oracle; sampleSize tuples
// are sampled per server. It runs SkewedGeneric's planner on the sampled
// z-frequencies. Correctness is unconditional; only load depends on the
// estimates.
func SkewedStarSampled(sampleSize int) Strategy {
	return skewedStarStrategy{sampleSize: sampleSize}
}

func (s skewedStarStrategy) Name() string { return "skewed-star-sampled" }

func (skewedStarStrategy) supportsAggregate() {}

func (s skewedStarStrategy) Execute(ctx ExecContext) (*Report, error) {
	if s.sampleSize < 1 {
		return nil, fmt.Errorf("mpcquery: SkewedStarSampled: sample size must be ≥ 1, got %d", s.sampleSize)
	}
	if !isStarQuery(ctx.Query) {
		return nil, fmt.Errorf("mpcquery: %s needs a star query (every atom S_j(z, x_j...) sharing the first variable); got %s",
			s.Name(), ctx.Query)
	}
	// The sampling protocol costs a genuine communication round; a cached
	// result skips the recomputation, but AddStatsCharges below always
	// charges the round's bits to the Report — cached vs charged (see
	// execCache).
	st := ctx.cached(fmt.Sprintf("star-stats|s%d|ss%d|c%g", ctx.Seed, s.sampleSize, ctx.LoadCapBits), func() any {
		return skew.StarStatsSpec(ctx.Query, ctx.DB, ctx.Servers).
			RunNet(ctx.Servers, s.sampleSize, ctx.Seed, ctx.LoadCapBits, ctx.env)
	}).(*skew.StatsResult)
	gp := ctx.cached(fmt.Sprintf("star-sampled|s%d|ss%d", ctx.Seed, s.sampleSize), func() any {
		spec := skew.StarStatsSpec(ctx.Query, ctx.DB, ctx.Servers)
		return skew.PrepareGenericFromStats(ctx.Query, ctx.DB, ctx.Servers, spec, st.PerAtom)
	}).(*skew.GenericPlan)
	return runLayout(s.Name(), ctx, gp, st, nil), nil
}

// isStarQuery reports whether every atom starts with the same variable —
// the star shape T_k, with a shared z in position 0.
func isStarQuery(q *Query) bool {
	if q.NumAtoms() < 2 {
		return false
	}
	z := q.Atoms[0].Vars[0]
	for _, a := range q.Atoms {
		if len(a.Vars) < 2 || a.Vars[0] != z {
			return false
		}
	}
	return true
}

type skewedTriangleStrategy struct{}

// SkewedTriangle returns the skew-aware strategy for the triangle query C3
// (Section 4.2.2): the generalized heavy/light pattern algorithm of
// SkewedGeneric, whose heavy cut m_j/s_v relative to the skew-free grid's
// shares s is about the cube cut m/p^{1/3} on C3. It checks the query and
// shares SkewedGeneric's cached plan.
func SkewedTriangle() Strategy { return skewedTriangleStrategy{} }

func (skewedTriangleStrategy) Name() string { return "skewed-triangle" }

func (skewedTriangleStrategy) supportsAggregate() {}

func (s skewedTriangleStrategy) Execute(ctx ExecContext) (*Report, error) {
	if !isTriangleQuery(ctx.Query) {
		return nil, fmt.Errorf("mpcquery: skewed-triangle needs the triangle query C3; got %s", ctx.Query)
	}
	return runGeneric(s.Name(), ctx), nil
}

// isTriangleQuery reports whether q is C3 up to names: three binary atoms
// over three variables, each atom on two distinct variables and each
// variable in exactly two atoms.
func isTriangleQuery(q *Query) bool {
	if q.NumAtoms() != 3 || q.NumVars() != 3 {
		return false
	}
	for _, a := range q.Atoms {
		if len(a.Vars) != 2 || a.Vars[0] == a.Vars[1] {
			return false
		}
	}
	for _, v := range q.Vars() {
		if len(q.AtomsOf(v)) != 2 {
			return false
		}
	}
	return true
}

type skewedGenericStrategy struct{}

// SkewedGeneric returns the BinHC heavy/light strategy (reference [6] of the
// paper) for any connected query: one block per pattern of degree bins, so
// its layout is bounded whatever the number of heavy values.
func SkewedGeneric() Strategy { return skewedGenericStrategy{} }

func (skewedGenericStrategy) Name() string { return "skewed-generic" }

func (skewedGenericStrategy) supportsAggregate() {}

func (s skewedGenericStrategy) Execute(ctx ExecContext) (*Report, error) {
	return runGeneric(s.Name(), ctx), nil
}

// runGeneric runs the generic pattern algorithm under its cached plan.
func runGeneric(name string, ctx ExecContext) *Report {
	gp := ctx.cached("generic", func() any {
		return skew.PrepareGeneric(ctx.Query, ctx.DB, ctx.Servers)
	}).(*skew.GenericPlan)
	return runLayout(name, ctx, gp, nil, nil)
}

// runLayout is where every one-round strategy finishes: it runs gp's data
// round for ctx and reports it. st, when set, is the statistics round,
// charged before the data round; shares, when set, are the HyperCube grid's.
func runLayout(name string, ctx ExecContext, gp *skew.GenericPlan, st *skew.StatsResult, shares []int) *Report {
	rec := skew.RunGenericPlannedNet(gp, ctx.Query, ctx.DB, ctx.Seed, ctx.LoadCapBits, ctx.aggregatePlan(), ctx.env)
	if st != nil {
		skew.AddStatsCharges(rec, st)
	}
	rep := newReport(name, ctx.Query, rec)
	rep.Shares = slices.Clone(shares)
	return rep
}

// ---- multi-round strategies ------------------------------------------------

type multiRoundStrategy struct {
	eps   float64
	chain bool
}

// ChainPlan returns the multi-round strategy of Example 5.2 for the chain
// query L_k: ⌈log_kε k⌉ rounds of kε-atom blocks at space exponent eps.
// The query passed to Run must be a chain (atoms S1..Sk in path shape).
func ChainPlan(eps float64) Strategy { return multiRoundStrategy{eps: eps, chain: true} }

// GreedyPlan returns the generic multi-round strategy: the greedy grouping
// of Lemma 5.4 over any connected query at space exponent eps, executed
// level by level with per-round load metering. Every plan node runs the
// heavy/light planner over its views, so a node whose intermediate views
// became skewed contains its hotspots.
func GreedyPlan(eps float64) Strategy { return multiRoundStrategy{eps: eps} }

// supportsAggregate: the executor aggregates at the root node.
func (multiRoundStrategy) supportsAggregate() {}

func (s multiRoundStrategy) Name() string {
	if s.chain {
		return fmt.Sprintf("chain-plan(ε=%.2f)", s.eps)
	}
	return fmt.Sprintf("greedy-plan(ε=%.2f)", s.eps)
}

func (s multiRoundStrategy) Execute(ctx ExecContext) (*Report, error) {
	if s.eps < 0 || s.eps >= 1 {
		return nil, fmt.Errorf("mpcquery: %s: space exponent must be in [0,1)", s.Name())
	}
	if !ctx.Query.IsConnected() {
		return nil, fmt.Errorf("mpcquery: %s needs a connected query; got %s", s.Name(), ctx.Query)
	}
	if s.chain {
		k := ctx.Query.NumAtoms()
		if !query.Chain(k).SameShape(ctx.Query) {
			return nil, fmt.Errorf("mpcquery: chain-plan needs the chain query L%d (atoms S1..S%d); got %s", k, k, ctx.Query)
		}
	}
	planKey := fmt.Sprintf("mr|c%t|e%g", s.chain, s.eps)
	plan := ctx.cached(planKey, func() any {
		if s.chain {
			return multiround.ChainPlan(ctx.Query.NumAtoms(), s.eps)
		}
		return multiround.GreedyPlan(ctx.Query, s.eps)
	}).(*multiround.Plan)
	return executeMultiRound(planKey, s.Name(), plan, s.eps, ctx)
}

// executeMultiRound runs a prepared plan and reports its record, predicting
// load as M_max/p^{1−ε} (the Section 5 target). The cacheKey scopes per-node
// memoized artifacts (the heavy/light layouts over intermediate views) to
// this particular plan — node names repeat across plans, so the key must
// identify the plan, not just the node.
func executeMultiRound(cacheKey string, name string, plan *multiround.Plan, eps float64, ctx ExecContext) (*Report, error) {
	var memo multiround.Memo
	if ctx.cache != nil {
		memo = func(key string, compute func() any) any {
			return ctx.cached(cacheKey+"|"+key, compute)
		}
	}
	rec := multiround.ExecuteAggregateCapMemoNet(plan, ctx.DB, ctx.Servers, ctx.Seed, ctx.LoadCapBits, ctx.aggregatePlan(), memo, ctx.env)
	rep := newReport(name, ctx.Query, rec)
	maxM := 0.0
	for _, a := range ctx.Query.Atoms {
		maxM = max(maxM, ctx.DB.Relations[a.Name].SizeBits(ctx.DB.N))
	}
	rep.PredictedLoadBits = maxM / math.Pow(float64(ctx.Servers), 1-eps)
	return rep, nil
}

// ---- auto ------------------------------------------------------------------

type autoStrategy struct{}

// Auto returns the self-tuning strategy: it asks the advisor for every
// executable option (one-round HyperCube variants, multi-round plans over
// an ε grid — the Table 3 tradeoff), picks the lowest predicted load within
// WithRoundBudget, and executes the winner.
func Auto() Strategy { return autoStrategy{} }

func (autoStrategy) Name() string { return "auto" }

func (autoStrategy) supportsAggregate() {}

func (s autoStrategy) Execute(ctx ExecContext) (*Report, error) {
	if !ctx.Query.IsConnected() {
		return nil, fmt.Errorf("mpcquery: auto needs a connected query; got %s", ctx.Query)
	}
	// The advisor's full option enumeration (two share LPs plus a greedy
	// plan per ε-grid point) is shape+stats determined; memoize it and keep
	// only the cheap budget-dependent Best pick per request.
	opts := ctx.cached("advice", func() any {
		return advisor.AdviseDatabase(ctx.Query, ctx.DB, ctx.Servers)
	}).([]advisor.Option)
	best, ok := advisor.Best(opts, ctx.RoundBudget)
	if !ok {
		return nil, fmt.Errorf("mpcquery: %w: no option fits a budget of %d round(s)",
			ErrNoFeasibleStrategy, ctx.RoundBudget)
	}
	var (
		rep *Report
		err error
	)
	switch {
	case best.Plan != nil:
		rep, err = executeMultiRound("auto|"+best.Name, s.Name(), best.Plan, best.SpaceExponent, ctx)
	case best.SkewRobust:
		rep, err = HyperCubeOblivious().Execute(ctx)
	default:
		rep, err = HyperCube().Execute(ctx)
	}
	if err != nil {
		return nil, err
	}
	rep.Strategy = "auto → " + best.Name
	rep.PredictedLoadBits = best.PredictedLoadBits
	return rep, nil
}

// newReport is the Report view of a run record: every built-in strategy
// reports through it, so every one lists its rounds.
func newReport(name string, q *Query, rec *engine.RunRecord) *Report {
	rep := &Report{
		Strategy:           name,
		Query:              q,
		Output:             rec.Output,
		Rounds:             len(rec.Rounds),
		ServersUsed:        rec.ServersUsed,
		MaxLoadBits:        rec.MaxLoadBits(),
		TotalBits:          rec.TotalBits(),
		InputBits:          rec.InputBits,
		ReplicationRate:    rec.ReplicationRate(),
		HeavyHitters:       rec.HeavyHitters,
		Aborted:            rec.Aborted(),
		AggregateBitsSaved: rec.AggregateBitsSaved,
	}
	for i, rs := range rec.Rounds {
		rep.RoundStats = append(rep.RoundStats, RoundStat{Round: i + 1, MaxLoadBits: rs.MaxRecvBits})
	}
	return rep
}
