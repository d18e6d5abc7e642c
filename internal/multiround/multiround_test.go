package multiround

import (
	"math/rand"
	"testing"

	"mpcquery/internal/bounds"
	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/query"
)

// TestChainPlanDepths checks Example 5.2 and Table 3: plan depth for L_k is
// ⌈log_kε k⌉.
func TestChainPlanDepths(t *testing.T) {
	tests := []struct {
		k      int
		eps    float64
		rounds int
	}{
		{16, 0.5, 2}, // Example 5.2: two rounds of L4 blocks
		{16, 0, 4},
		{8, 0, 3},
		{4, 0, 2},
		{2, 0, 1},
		{9, 0, 4},
		{27, 2.0 / 3, 2}, // kε=6: ⌈log6 27⌉ = 2
	}
	for _, tt := range tests {
		p := ChainPlan(tt.k, tt.eps)
		if got := p.Rounds(); got != tt.rounds {
			t.Errorf("L%d ε=%v: rounds=%d want %d\n%s", tt.k, tt.eps, got, tt.rounds, p)
		}
		if got, want := p.Rounds(), bounds.ChainRounds(tt.k, tt.eps); got != want {
			t.Errorf("L%d ε=%v: plan %d != formula %d", tt.k, tt.eps, got, want)
		}
	}
}

// TestSpokedWheelPlan checks Example 5.3: SP_k has a 2-round plan at ε=0
// even though τ*(SP_k)=k.
func TestSpokedWheelPlan(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		p := GreedyPlan(query.SpokedWheel(k), 0)
		if got := p.Rounds(); got != 2 {
			t.Errorf("SP%d: rounds=%d want 2\n%s", k, got, p)
		}
	}
}

// TestStarPlanOneRound: stars are in Γ¹₀, so the plan is a single round.
func TestStarPlanOneRound(t *testing.T) {
	p := GreedyPlan(query.Star(5), 0)
	if got := p.Rounds(); got != 1 {
		t.Errorf("T5: rounds=%d want 1", got)
	}
}

// TestCyclePlanDepth checks cycles against the Lemma 5.4 upper bound.
func TestCyclePlanDepth(t *testing.T) {
	for _, k := range []int{5, 6, 8, 12} {
		p := CyclePlan(k, 0)
		ub := bounds.RoundsUB(query.Cycle(k), 0)
		if got := p.Rounds(); got > ub {
			t.Errorf("C%d: plan rounds=%d exceeds Lemma 5.4 bound %d\n%s", k, got, ub, p)
		}
	}
}

// TestExecuteChainCorrect runs the L8 plan end to end and compares with the
// sequential answer.
func TestExecuteChainCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	k := 8
	db := data.ChainMatchingDatabase(rng, k, 300, 1<<20)
	q := query.Chain(k)
	plan := ChainPlan(k, 0.5)
	res := Execute(plan, db, 64, 7)
	want := core.SequentialAnswer(q, db)
	if !data.Equal(res.Output, want) {
		t.Fatalf("chain exec: got %d want %d tuples", res.Output.NumTuples(), want.NumTuples())
	}
	if res.Output.NumTuples() != 300 {
		t.Fatalf("composing chain should have 300 outputs, got %d", res.Output.NumTuples())
	}
	if len(res.Rounds) != plan.Rounds() {
		t.Errorf("executed rounds=%d plan says %d", len(res.Rounds), plan.Rounds())
	}
}

// TestExecuteCycleCorrect runs the C6 plan end to end.
func TestExecuteCycleCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := query.Cycle(6)
	db := data.MatchingDatabase(rng, q, 400, 1<<20)
	plan := CyclePlan(6, 0)
	res := Execute(plan, db, 64, 9)
	want := core.SequentialAnswer(q, db)
	if !data.Equal(res.Output, want) {
		t.Fatalf("cycle exec: got %d want %d tuples", res.Output.NumTuples(), want.NumTuples())
	}
}

// TestExecuteSpokedWheel runs SP_2 (τ*=2) through its 2-round plan.
func TestExecuteSpokedWheel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := query.SpokedWheel(2)
	db := data.MatchingDatabase(rng, q, 300, 1<<20)
	plan := GreedyPlan(q, 0)
	res := Execute(plan, db, 32, 11)
	want := core.SequentialAnswer(q, db)
	if !data.Equal(res.Output, want) {
		t.Fatalf("SP2 exec: got %d want %d tuples", res.Output.NumTuples(), want.NumTuples())
	}
}

// TestMultiRoundLoadAdvantage checks the Section 5 tradeoff on L4: the
// 2-round plan at ε=0 achieves a smaller per-round load than the 1-round
// HyperCube (which needs load ~M/p^{1/2} since τ*(L4)=2).
func TestMultiRoundLoadAdvantage(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	k, m, p := 4, 4000, 64
	db := data.ChainMatchingDatabase(rng, k, m, 1<<22)
	q := query.Chain(k)

	oneRound := core.Run(q, db, p, 13, core.SkewFree)
	twoRound := Execute(ChainPlan(k, 0), db, p, 13)
	if !data.Equal(oneRound.Output, twoRound.Output) {
		t.Fatal("outputs differ")
	}
	if len(twoRound.Rounds) != 2 {
		t.Fatalf("rounds=%d want 2", len(twoRound.Rounds))
	}
	// One-round load should be ≈ sqrt(p) = 8 times larger per server.
	ratio := oneRound.MaxLoadBits() / twoRound.MaxLoadBits()
	if ratio < 2 {
		t.Errorf("expected multi-round load advantage, got ratio %.2f (1r=%v 2r=%v)",
			ratio, oneRound.MaxLoadBits(), twoRound.MaxLoadBits())
	}
}

func TestPlanStringRendering(t *testing.T) {
	p := ChainPlan(4, 0)
	s := p.String()
	if s == "" {
		t.Error("empty plan string")
	}
}

// ---- (ε,r)-plan machinery --------------------------------------------------

func TestEpsGoodChain(t *testing.T) {
	q := query.Chain(5)
	// Lemma 5.6 set {S1,S3,S5} (indices 0,2,4) is ε-good at ε=0.
	if !EpsGood(q, []int{0, 2, 4}, 0) {
		t.Error("{S1,S3,S5} should be ε-good for L5")
	}
	// Adjacent atoms {S1,S2} are not: the connected subquery {S1,S2} ∈ Γ¹₀
	// contains both.
	if EpsGood(q, []int{0, 1}, 0) {
		t.Error("{S1,S2} should not be ε-good for L5")
	}
	// χ(complement) must be 0: {S1,S4} leaves complement {S2,S3,S5};
	// subquery S2,S3 is a path (χ=0) plus single S5 (χ=0) -> χ=0, and no
	// Γ¹₀ subquery holds S1 and S4 (distance 3), so it is ε-good.
	if !EpsGood(q, []int{0, 3}, 0) {
		t.Error("{S1,S4} should be ε-good for L5")
	}
}

func TestChainEpsPlanMatchesLemma(t *testing.T) {
	for _, tt := range []struct {
		k   int
		eps float64
	}{
		{5, 0}, {8, 0}, {9, 0}, {16, 0.5},
	} {
		plan := ChainEpsPlan(tt.k, tt.eps)
		if err := plan.Verify(); err != nil {
			t.Errorf("L%d ε=%v: %v", tt.k, tt.eps, err)
		}
		want := bounds.ChainRounds(tt.k, tt.eps)
		if got := plan.RoundsLB(); got != want {
			t.Errorf("L%d ε=%v: plan LB %d want %d", tt.k, tt.eps, got, want)
		}
	}
}

func TestCycleEpsPlanMatchesLemma(t *testing.T) {
	for _, tt := range []struct {
		k       int
		eps     float64
		roundLB int
	}{
		{5, 0, 2}, // Example 5.19
		{6, 0, 3}, // Example 5.19
		{12, 0, 4},
	} {
		plan := CycleEpsPlan(tt.k, tt.eps)
		if err := plan.Verify(); err != nil {
			t.Errorf("C%d ε=%v: %v", tt.k, tt.eps, err)
		}
		if got := plan.RoundsLB(); got != tt.roundLB {
			t.Errorf("C%d: plan LB %d want %d", tt.k, got, tt.roundLB)
		}
		if got, want := plan.RoundsLB(), bounds.CycleRoundsLB(tt.k, tt.eps); got != want {
			t.Errorf("C%d: plan %d != formula %d", tt.k, got, want)
		}
	}
}

// TestUpperMeetsLower: for chains the executable plan's rounds equal the
// (ε,r)-plan lower bound — the paper's headline tightness result
// (Corollary 5.15).
func TestUpperMeetsLower(t *testing.T) {
	for _, k := range []int{4, 5, 8, 9, 16} {
		for _, eps := range []float64{0, 0.5} {
			ub := ChainPlan(k, eps).Rounds()
			lb := ChainEpsPlan(k, eps).RoundsLB()
			if ub != lb {
				t.Errorf("L%d ε=%v: UB %d != LB %d", k, eps, ub, lb)
			}
		}
	}
}

// TestRoundBoundCells pins GreedyPlan's rounds and the Lemma 5.18 lower
// bound on C_k and L_k, k = 3…10, ε ∈ {0, 1/4, 1/2}, cell by cell, and
// checks every cell against the paper's bounds: a cycle lies in
// [CycleRoundsLB, RoundsUB (Lemma 5.4)], and a chain meets ChainRounds,
// which Corollary 5.15 makes tight. The cycles sit one round above their
// lower bound at C5, C9 and C10 for ε < 1/2; the paper leaves C5 open
// (Example 5.19).
func TestRoundBoundCells(t *testing.T) {
	for _, row := range []struct {
		eps      float64
		cycles   [8]int // C3 … C10
		cycleLBs [8]int
		chains   [8]int // L3 … L10
	}{
		{0, [8]int{2, 2, 3, 3, 3, 3, 4, 4}, [8]int{2, 2, 2, 3, 3, 3, 3, 3}, [8]int{2, 2, 3, 3, 3, 3, 4, 4}},
		{0.25, [8]int{2, 2, 3, 3, 3, 3, 4, 4}, [8]int{2, 2, 2, 3, 3, 3, 3, 3}, [8]int{2, 2, 3, 3, 3, 3, 4, 4}},
		{0.5, [8]int{1, 1, 2, 2, 2, 2, 2, 2}, [8]int{1, 1, 2, 2, 2, 2, 2, 2}, [8]int{1, 1, 2, 2, 2, 2, 2, 2}},
	} {
		for i := range row.cycles {
			k := i + 3
			c, l := query.Cycle(k), query.Chain(k)
			if got := GreedyPlan(c, row.eps).Rounds(); got != row.cycles[i] {
				t.Errorf("C%d ε=%v: %d rounds, want %d", k, row.eps, got, row.cycles[i])
			}
			if got := bounds.CycleRoundsLB(k, row.eps); got != row.cycleLBs[i] {
				t.Errorf("C%d ε=%v: CycleRoundsLB %d, want %d", k, row.eps, got, row.cycleLBs[i])
			}
			if ub := bounds.RoundsUB(c, row.eps); row.cycles[i] < row.cycleLBs[i] || row.cycles[i] > ub {
				t.Errorf("C%d ε=%v: %d rounds outside [%d, %d]", k, row.eps, row.cycles[i], row.cycleLBs[i], ub)
			}
			if got := GreedyPlan(l, row.eps).Rounds(); got != row.chains[i] {
				t.Errorf("L%d ε=%v: %d rounds, want %d", k, row.eps, got, row.chains[i])
			}
			if want := bounds.ChainRounds(k, row.eps); row.chains[i] != want || want > bounds.RoundsUB(l, row.eps) {
				t.Errorf("L%d ε=%v: %d rounds, ChainRounds %d, RoundsUB %d", k, row.eps, row.chains[i], want, bounds.RoundsUB(l, row.eps))
			}
		}
	}
}

// ---- connected components ---------------------------------------------------

func TestLabelPropagationCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := data.LayeredPathGraph(rng, 8, 50)
	res := LabelPropagation(g, 16, 3, 0)
	want := g.ComponentsSequential()
	checkLabels(t, res.Labels, want, g)
}

func TestPointerJumpingCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := data.LayeredPathGraph(rng, 8, 50)
	res := PointerJumping(g, 16, 3, 0)
	want := g.ComponentsSequential()
	checkLabels(t, res.Labels, want, g)
}

func TestCCRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		g := data.RandomGraph(rng, 200, 150)
		want := g.ComponentsSequential()
		lp := LabelPropagation(g, 8, int64(trial), 0)
		checkLabels(t, lp.Labels, want, g)
		pj := PointerJumping(g, 8, int64(trial), 0)
		checkLabels(t, pj.Labels, want, g)
	}
}

// checkLabels verifies that both labelings induce the same partition.
func checkLabels(t *testing.T, got, want map[int64]int64, g *data.Graph) {
	t.Helper()
	for v, l := range want {
		gl, ok := got[v]
		if !ok {
			t.Fatalf("vertex %d unlabeled", v)
		}
		if gl != l {
			t.Fatalf("vertex %d: label %d want %d (component min)", v, gl, l)
		}
	}
	_ = g
}

// TestCCRoundScaling is the Theorem 5.20 experiment in miniature: on a path
// of diameter d, label propagation needs Θ(d) rounds while pointer jumping
// needs O(log d)-ish — the separation must widen with d.
func TestCCRoundScaling(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	type row struct{ lp, pj int }
	rows := map[int]row{}
	for _, d := range []int{8, 32, 64} {
		g := data.LayeredPathGraph(rng, d, 20)
		lp := LabelPropagation(g, 16, 1, 0)
		pj := PointerJumping(g, 16, 1, 0)
		want := g.ComponentsSequential()
		checkLabels(t, lp.Labels, want, g)
		checkLabels(t, pj.Labels, want, g)
		rows[d] = row{lp.IterRounds, pj.IterRounds}
	}
	if rows[64].lp <= rows[8].lp {
		t.Errorf("label propagation rounds should grow with diameter: %v", rows)
	}
	if rows[64].pj >= rows[64].lp {
		t.Errorf("pointer jumping (%d) should beat label propagation (%d) at diameter 64",
			rows[64].pj, rows[64].lp)
	}
}

func TestCCSingleServer(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := data.LayeredPathGraph(rng, 4, 5)
	res := LabelPropagation(g, 1, 1, 0)
	checkLabels(t, res.Labels, g.ComponentsSequential(), g)
}

// TestIntermediatesStayLinear: on composing chain matchings every view has
// exactly m tuples — the premise of the Section 5 load analysis. A view is
// its node's query over its children's views, evaluated here bottom up on
// one node.
func TestIntermediatesStayLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := 500
	db := data.ChainMatchingDatabase(rng, 8, m, 1<<20)
	plan := ChainPlan(8, 0)
	views := data.NewDatabase(db.N)
	for _, r := range db.Relations {
		views.Add(r)
	}
	var materialize func(n *Node)
	materialize = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		for _, c := range n.Children {
			materialize(c)
		}
		v := core.SequentialAnswer(n.Query, views)
		if v.NumTuples() != m {
			t.Errorf("view %s has %d tuples, want %d (matchings compose 1:1)", n.Name, v.NumTuples(), m)
		}
		v.Name = n.Name
		views.Add(v)
	}
	materialize(plan.Root)
	if got := Execute(plan, db, 32, 5).Output; !data.Equal(got, views.Get(plan.Root.Name)) {
		t.Errorf("executed plan output differs from the sequential views")
	}
}

// TestExecuteSkewAwareCorrect: the executor, which plans every node with
// the heavy/light planner, must produce the sequential join in the plan's
// rounds on a skew-free chain, where no node holds a heavy value.
func TestExecuteSkewAwareCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	db := data.ChainMatchingDatabase(rng, 4, 400, 1<<20)
	q := query.Chain(4)
	plan := ChainPlan(4, 0)
	aware := Execute(plan, db, 32, 7)
	want := core.SequentialAnswer(q, db)
	if !data.Equal(aware.Output, want) {
		t.Fatalf("skew-aware exec: %d vs %d tuples", aware.Output.NumTuples(), want.NumTuples())
	}
	if len(aware.Rounds) != plan.Rounds() {
		t.Errorf("rounds=%d plan=%d", len(aware.Rounds), plan.Rounds())
	}
	if aware.HeavyHitters != 0 {
		t.Errorf("heavy hitters=%d on a chain of matchings, want 0", aware.HeavyHitters)
	}
}

// TestExecuteSkewAwareBeatsVanillaOnSkew: a chain whose middle relation has
// a heavy join value produces a skewed intermediate view; per-node skew
// handling must contain the hotspot. Running one HyperCube shuffle per node,
// the executor this one replaced, read 65 600 bits on this instance; the
// heavy/light planner read 16 860 there, and may not do worse.
func TestExecuteSkewAwareBeatsVanillaOnSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	n := int64(1 << 20)
	m := 3000
	db := data.NewDatabase(n)
	// S1(x0,x1): half the tuples end in the heavy value 7.
	s1 := data.NewRelation("S1", 2)
	left := data.SampleDistinct(rng, m, n)
	right := data.SampleDistinct(rng, m, n)
	for i := 0; i < m; i++ {
		if i < m/2 {
			s1.Append(left[i], 7)
		} else {
			s1.Append(left[i], right[i])
		}
	}
	db.Add(s1)
	// S2(x1,x2): the heavy value 7 also starts 8 of its tuples.
	s2 := data.NewRelation("S2", 2)
	l2 := data.SampleDistinct(rng, m, n)
	r2 := data.SampleDistinct(rng, m, n)
	for i := 0; i < m; i++ {
		if i < 8 { // keep the join output small but the routing skewed
			s2.Append(7, r2[i])
		} else {
			s2.Append(l2[i], r2[i])
		}
	}
	db.Add(s2)
	db.Add(data.RandomMatching(rng, "S3", 2, m, n))
	db.Add(data.RandomMatching(rng, "S4", 2, m, n))

	q := query.Chain(4)
	const hyperCubePerNodeBits, maxBits = 65_600, 16_860
	aware := Execute(ChainPlan(4, 0), db, 64, 5)
	if !data.Equal(aware.Output, core.SequentialAnswer(q, db)) {
		t.Fatal("output != sequential")
	}
	if aware.HeavyHitters == 0 {
		t.Error("no node found the planted heavy value")
	}
	if got := aware.MaxLoadBits(); got > maxBits {
		t.Errorf("max load %v bits, want ≤ %d (HyperCube per node: %d)", got, maxBits, hyperCubePerNodeBits)
	}
}
