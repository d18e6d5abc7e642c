package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"mpcquery/internal/bounds"
	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/multiround"
	"mpcquery/internal/query"
)

// RoundsTradeoffRow is one query of E2.
type RoundsTradeoffRow struct {
	Query    string
	EpsOne   float64 // the space exponent one round needs
	Formula  int     // rounds at ε=0: 1 in Γ¹₀, else the Lemma 5.4 bound r(q)
	Planner  int     // rounds of the executable plan at ε=0
	Tradeoff string  // the paper's r(ε) column
}

// Table3RoundsTradeoff regenerates Table 3: the one-round space exponent,
// the rounds needed to reach load O(M/p), and the rounds/space tradeoff for
// C_k, L_k, T_k and SP_k. Plan depths are produced by the actual planner,
// which meets or beats the formula on every family.
func Table3RoundsTradeoff(cfg Config) []RoundsTradeoffRow {
	const logK = "~ log k / log(2/(1-ε))"
	var out []RoundsTradeoffRow
	for _, r := range []struct {
		q        *query.Query
		tradeoff string
	}{
		{query.Cycle(4), logK},
		{query.Cycle(8), logK},
		{query.Chain(4), logK},
		{query.Chain(8), logK},
		{query.Chain(16), logK},
		{query.Star(4), "NA (1 round)"},
		{query.SpokedWheel(3), "NA (2 rounds)"},
	} {
		formula := 1
		if !bounds.InGammaOne(r.q, 0) {
			formula = bounds.RoundsUB(r.q, 0)
		}
		out = append(out, RoundsTradeoffRow{
			Query:    r.q.Name,
			EpsOne:   bounds.SpaceExponentLB(r.q),
			Formula:  formula,
			Planner:  multiround.GreedyPlan(r.q, 0).Rounds(),
			Tradeoff: r.tradeoff,
		})
	}
	return out
}

// ChainRoundsRow is one query of E8.
type ChainRoundsRow struct {
	Query    string
	Eps      float64
	PlanUB   int     // rounds of the executable plan
	LB       int     // rounds of the (ε,r)-plan lower bound
	Executed int     // rounds the engine ran
	Measured float64 // max load bits over all rounds
	Target   float64 // M/p^{1−ε} bits
}

// ChainMultiRound regenerates Examples 5.2/5.3 and Corollary 5.15: for L_k
// the executable plan's depth equals both the ⌈log_kε k⌉ formula and the
// (ε,r)-plan lower bound, and every round's measured load stays near
// M/p^{1−ε} (p = 64). The last row is SP_3: τ* = 3, yet a 2-round plan
// reaches load M/p (Example 5.3).
func ChainMultiRound(cfg Config) []ChainRoundsRow {
	p := 64
	m := cfg.scale(2000, 400)
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	var out []ChainRoundsRow
	for _, tt := range []struct {
		k   int
		eps float64
	}{
		{8, 0}, {16, 0}, {16, 0.5}, {4, 0},
	} {
		db := data.ChainMatchingDatabase(rng, tt.k, m, int64(16*m))
		plan := multiround.ChainPlan(tt.k, tt.eps)
		res := multiround.Execute(plan, db, p, cfg.Seed)
		out = append(out, ChainRoundsRow{
			Query:    fmt.Sprintf("L%d", tt.k),
			Eps:      tt.eps,
			PlanUB:   plan.Rounds(),
			LB:       multiround.ChainEpsPlan(tt.k, tt.eps).RoundsLB(),
			Executed: len(res.Rounds),
			Measured: res.MaxLoadBits(),
			Target:   db.Get("S1").SizeBits(db.N) / math.Pow(float64(p), 1-tt.eps),
		})
	}
	spq := query.SpokedWheel(3)
	spdb := data.MatchingDatabase(rng, spq, m, int64(16*m))
	spPlan := multiround.GreedyPlan(spq, 0)
	spRes := multiround.Execute(spPlan, spdb, p, cfg.Seed)
	return append(out, ChainRoundsRow{
		Query:    "SP3",
		PlanUB:   spPlan.Rounds(),
		LB:       2,
		Executed: len(spRes.Rounds),
		Measured: spRes.MaxLoadBits(),
		Target:   spdb.Get("R1").SizeBits(spdb.N) / float64(p),
	})
}

// CycleRoundsRow is one cycle of E9.
type CycleRoundsRow struct {
	Query    string
	PlanLB   int  // rounds of the (ε,r)-plan lower bound
	LemmaLB  int  // the Lemma 5.18 formula ⌊log_kε(k/(mε+1))⌋ + 2
	UB       int  // the Lemma 5.4 bound r(q)
	Planner  int  // rounds of the executable plan
	Executed int  // rounds the engine ran
	OutputOK bool // output equals the sequential answer
}

// CycleRounds regenerates Example 5.19: C6 is tight at 3 rounds (ε=0) while
// C5 has LB 2 vs UB 3 — the paper leaves its exact round complexity open.
func CycleRounds(cfg Config) []CycleRoundsRow {
	p := 64
	m := cfg.scale(1500, 300)
	rng := rand.New(rand.NewSource(cfg.Seed + 8))
	var out []CycleRoundsRow
	for _, k := range []int{5, 6, 8} {
		q := query.Cycle(k)
		db := data.MatchingDatabase(rng, q, m, int64(16*m))
		plan := multiround.CyclePlan(k, 0)
		res := multiround.Execute(plan, db, p, cfg.Seed)
		out = append(out, CycleRoundsRow{
			Query:    fmt.Sprintf("C%d", k),
			PlanLB:   multiround.CycleEpsPlan(k, 0).RoundsLB(),
			LemmaLB:  bounds.CycleRoundsLB(k, 0),
			UB:       bounds.RoundsUB(q, 0),
			Planner:  plan.Rounds(),
			Executed: len(res.Rounds),
			OutputOK: data.Equal(res.Output, core.SequentialAnswer(q, db)),
		})
	}
	return out
}

// ComponentsRow is one server count of E10.
type ComponentsRow struct {
	P           int
	Diameter    int
	LabelProp   int     // label-propagation rounds
	PointerJump int     // pointer-jumping rounds
	LogP        int     // ⌈log₂ p⌉, the Ω(log p) shape
	PJMaxLoad   float64 // pointer jumping's max load bits
	EdgeBitsP   float64 // edges·bits/p
}

// ConnectedComponents regenerates the Theorem 5.20 context: on layered path
// graphs whose diameter grows linearly with p, label propagation needs
// Θ(diameter) rounds while pointer jumping needs O(log diameter); both
// loads stay near m/p. The theorem says no tuple-based algorithm beats
// Ω(log p) rounds at load O(m/p^{1−ε}).
func ConnectedComponents(cfg Config) []ComponentsRow {
	perLayer := cfg.scale(40, 15)
	rng := rand.New(rand.NewSource(cfg.Seed + 9))
	var out []ComponentsRow
	for _, p := range []int{4, 16, 64} {
		g := data.LayeredPathGraph(rng, p, perLayer)
		bits := float64(2 * data.BitsPerValue(g.NumVertices))
		pj := multiround.PointerJumping(g, p, cfg.Seed, 0)
		out = append(out, ComponentsRow{
			P:           p,
			Diameter:    p,
			LabelProp:   multiround.LabelPropagation(g, p, cfg.Seed, 0).IterRounds,
			PointerJump: pj.IterRounds,
			LogP:        int(math.Ceil(math.Log2(float64(p)))),
			PJMaxLoad:   pj.MaxLoadBits,
			EdgeBitsP:   float64(g.NumEdges()) * bits / float64(p),
		})
	}
	return out
}
