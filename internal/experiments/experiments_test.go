package experiments

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

var quickCfg = Config{Seed: 42, Quick: true}

// table2 runs E1 once for the tests that assert on its rows.
var table2 = sync.OnceValue(func() []ShareExponentRow { return Table2ShareExponents(quickCfg) })

func TestTable2Shapes(t *testing.T) {
	rows := table2()
	if len(rows) != 11 {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if v := r.Measured / r.Predicted; v < 0.1 || v > 8 {
			t.Errorf("%s: measured/predicted=%v out of range", r.Query, v)
		}
	}
}

// TestInputServerModelEquivalence: HyperCube routing depends only on tuple
// content, so the input-server model of Section 2.1 loads every server
// exactly as the partitioned-input model does — the equivalence the paper
// uses to transfer its lower bounds between the two models.
func TestInputServerModelEquivalence(t *testing.T) {
	for _, r := range table2() {
		if r.InputServer != r.Measured {
			t.Errorf("%s: input-server load %v, partitioned load %v", r.Query, r.InputServer, r.Measured)
		}
	}
}

// TestAnswersWithinAGMBound: no database has more answers than the AGM
// bound at a fractional edge cover (Section 2.4).
func TestAnswersWithinAGMBound(t *testing.T) {
	for _, r := range table2() {
		if float64(r.Answers) > r.AGM {
			t.Errorf("%s: %d answers above the AGM bound %v", r.Query, r.Answers, r.AGM)
		}
	}
}

// TestExpectedAnswersLemma36 compares the mean answer count over
// answerSamples fresh matching databases with the Lemma 3.6 expectation E.
// The standard error SE = s/√N comes from the samples themselves, and the
// studentized mean (mean − E)/SE follows Student's t with N − 1 = 19
// degrees of freedom, which exceeds 5 in absolute value with probability
// below 1e-4: the band is E ± 5·SE. Where E < 1 nearly every count is 0,
// so s estimates nothing; there Markov's inequality, P(mean ≥ t) ≤ E/t,
// puts the mean below 100·E with probability at least 99 %.
func TestExpectedAnswersLemma36(t *testing.T) {
	for _, r := range table2() {
		if r.Expected < 1 {
			if r.MeanAnswers > 100*r.Expected {
				t.Errorf("%s: mean answers %v, expectation %v < 1", r.Query, r.MeanAnswers, r.Expected)
			}
			continue
		}
		if math.Abs(r.MeanAnswers-r.Expected) > 5*r.AnswersSE {
			t.Errorf("%s: mean answers %v ± %v (SE), expectation %v", r.Query, r.MeanAnswers, r.AnswersSE, r.Expected)
		}
	}
}

func TestTable3PlannerMeetsFormula(t *testing.T) {
	for _, r := range Table3RoundsTradeoff(quickCfg) {
		if r.Planner > r.Formula {
			t.Errorf("%s: planner %d rounds, formula %d", r.Query, r.Planner, r.Formula)
		}
	}
}

func TestTriangleUnequalCrossover(t *testing.T) {
	rows := TriangleUnequalSizes(quickCfg)
	// Small p: exponent 1 (broadcast S1); large p: 2/3.
	if first := rows[0].Speedup; math.Abs(first-1) > 1e-2 {
		t.Errorf("small-p speedup exponent=%v want 1", first)
	}
	if last := rows[len(rows)-1].Speedup; math.Abs(last-2.0/3) > 1e-2 {
		t.Errorf("large-p speedup exponent=%v want 2/3", last)
	}
}

func TestReplicationRateShape(t *testing.T) {
	for _, r := range ReplicationRate(quickCfg) {
		if v := r.Replication / r.Shape; v < 0.05 || v > 20 {
			t.Errorf("p=%d: r/shape=%v should be Θ(1)", r.P, v)
		}
	}
}

func TestSkewedJoinSeparation(t *testing.T) {
	rows := SkewedJoin(quickCfg)
	noSkew := rows[0].Naive / rows[0].Aware
	fullSkew := rows[len(rows)-1].Naive / rows[len(rows)-1].Aware
	if fullSkew <= noSkew {
		t.Errorf("separation should grow with skew: %v -> %v", noSkew, fullSkew)
	}
	if fullSkew < 2 {
		t.Errorf("full-skew separation=%v want ≥ 2", fullSkew)
	}
}

func TestSkewedStarNearLB(t *testing.T) {
	for _, r := range SkewedStar(quickCfg) {
		if v := r.Aware / r.LB; v < 0.05 || v > 50 {
			t.Errorf("%s: aware/LB=%v should be bounded", r.Profile, v)
		}
	}
}

func TestSkewedTriangleBeatsVanilla(t *testing.T) {
	rows := SkewedTriangle(quickCfg)
	if last := rows[len(rows)-1]; last.Vanilla < last.Aware {
		t.Errorf("at heavy skew the aware algorithm should win: vanilla %v, aware %v", last.Vanilla, last.Aware)
	}
}

// TestTriangleMeasuredAboveGeneralLB ties the triangle runs to Theorem
// 4.4: the measured skew-aware load dominates the skewed lower bound from
// the x1-statistics times the theorem's constant min_j (a_j−d_j)/(4a_j),
// which is 1/8 for binary atoms and one distinguished variable.
func TestTriangleMeasuredAboveGeneralLB(t *testing.T) {
	for _, r := range SkewedTriangle(quickCfg) {
		if r.SkewedLB <= 0 {
			t.Errorf("heavy count %d: vacuous lower bound", r.HeavyCount)
		}
		if r.Aware < r.SkewedLB/8 {
			t.Errorf("heavy count %d: measured %v below the Theorem 4.4 bound %v/8", r.HeavyCount, r.Aware, r.SkewedLB)
		}
	}
}

func TestChainMultiRoundTight(t *testing.T) {
	for _, r := range ChainMultiRound(quickCfg) {
		if r.PlanUB != r.LB && r.Query != "SP3" {
			t.Errorf("%s: UB %d != LB %d", r.Query, r.PlanUB, r.LB)
		}
		if r.Executed != r.PlanUB {
			t.Errorf("%s: executed %d != plan %d", r.Query, r.Executed, r.PlanUB)
		}
	}
}

func TestCycleRoundsOutputOK(t *testing.T) {
	for _, r := range CycleRounds(quickCfg) {
		if !r.OutputOK {
			t.Errorf("%s: output mismatch", r.Query)
		}
	}
}

// TestCycleRoundsWithinBounds: the Lemma 5.18 formula is the (ε,r)-plan
// lower bound, and the executed plan's rounds lie between it and the
// Lemma 5.4 upper bound.
func TestCycleRoundsWithinBounds(t *testing.T) {
	for _, r := range CycleRounds(quickCfg) {
		if r.LemmaLB != r.PlanLB {
			t.Errorf("%s: Lemma 5.18 gives %d rounds, the (ε,r)-plan %d", r.Query, r.LemmaLB, r.PlanLB)
		}
		if r.Planner != r.Executed || r.Planner < r.LemmaLB || r.Planner > r.UB {
			t.Errorf("%s: planner %d, executed %d rounds outside [%d, %d]", r.Query, r.Planner, r.Executed, r.LemmaLB, r.UB)
		}
	}
}

func TestConnectedComponentsSeparation(t *testing.T) {
	rows := ConnectedComponents(quickCfg)
	if last := rows[len(rows)-1]; last.PointerJump >= last.LabelProp {
		t.Errorf("pointer jumping (%d) should beat label propagation (%d) at large diameter", last.PointerJump, last.LabelProp)
	}
}

func TestBallsInBinsBoundDominates(t *testing.T) {
	for _, r := range BallsInBins(quickCfg) {
		if r.Empirical > r.Chernoff+0.05 {
			t.Errorf("weights=%s δ=%v: empirical %v exceeds bound %v", r.Weights, r.Delta, r.Empirical, r.Chernoff)
		}
	}
}

func TestLowerEqualsUpperTight(t *testing.T) {
	if gap := LowerEqualsUpper(quickCfg)[0].MaxGap; gap > 1e-4 {
		t.Errorf("L_lower vs L_upper gap=%v", gap)
	}
}

func TestAnswerFractionShrinks(t *testing.T) {
	rows := AnswerFraction(quickCfg)
	if first, last := rows[0].Found, rows[len(rows)-1].Found; last >= first {
		t.Errorf("capped fraction should shrink with p: %v -> %v", first, last)
	}
	for _, r := range rows {
		if r.AtLower < 0.97 {
			t.Errorf("p=%d: L_lower-proportional cap should keep all answers, got %v", r.P, r.AtLower)
		}
	}
}

func TestSpeedupSlopes(t *testing.T) {
	for _, r := range SpeedupCurve(quickCfg) {
		if v := math.Abs(r.Fitted - r.Predicted); v > 0.35 {
			t.Errorf("%s: slope off by %v", r.Query, v)
		}
	}
}

func TestSampledStatsConverges(t *testing.T) {
	rows := SampledStats(quickCfg)
	for _, r := range rows {
		if !r.OutputOK {
			t.Errorf("sample %d: sampled statistics changed the output", r.Sample)
		}
	}
	if last := rows[len(rows)-1]; last.Sampled > 1.5*last.Oracle {
		t.Errorf("full-sample run should match the oracle: sampled %v, oracle %v", last.Sampled, last.Oracle)
	}
}

func TestCartesianGrid(t *testing.T) {
	rows := CartesianProduct(quickCfg)
	for _, r := range rows {
		if v := r.Measured / r.Predicted; v < 0.3 || v > 4 {
			t.Errorf("p=%d: measured/predicted=%v", r.P, v)
		}
	}
	if sh := rows[2].Shares; !slices.Equal(sh, []int{8, 8}) { // p=64 -> sqrt grid
		t.Errorf("p=64 shares=%v want [8 8]", sh)
	}
}

func TestAbortProbabilityFalls(t *testing.T) {
	rows := AbortProbability(quickCfg)
	first, last := rows[0], rows[len(rows)-1]
	if last.Aborts > first.Aborts {
		t.Errorf("aborts should fall with the cap: %d -> %d", first.Aborts, last.Aborts)
	}
	if float64(last.Aborts) > 0.2*float64(last.Trials) {
		t.Errorf("generous cap should almost never abort: %d of %d", last.Aborts, last.Trials)
	}
}

func TestAllIndex(t *testing.T) {
	all := All()
	if len(all) != 17 {
		t.Fatalf("experiments=%d want 17", len(all))
	}
	for i, e := range all {
		if want := fmt.Sprintf("E%d", i+1); e.ID != want || e.Ref == "" || e.Title == "" || e.Run == nil {
			t.Errorf("entry %d: %+v, want id %s with a ref, a title and a run", i, e, want)
		}
	}
}
