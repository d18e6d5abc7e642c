package mpcquery

// One benchmark per paper artifact (tables, worked examples and theorems of
// the evaluation — experiments.All lists E1–E17 in index order). Each
// bench regenerates its table on reduced inputs and reports the headline
// "shape" metric the paper predicts, so `go test -bench=.` doubles as a
// reproduction smoke test. cmd/mpcbench prints the full tables.

import (
	"math/rand"
	"strconv"
	"testing"

	"mpcquery/internal/experiments"
)

func benchCfg(i int64) experiments.Config {
	return experiments.Config{Seed: 42 + i, Quick: true}
}

// metric extracts a named numeric column average from a table.
func metric(b *testing.B, t *experiments.Table, column string) float64 {
	b.Helper()
	idx := -1
	for i, c := range t.Columns {
		if c == column {
			idx = i
		}
	}
	if idx < 0 {
		b.Fatalf("table %s has no column %q", t.ID, column)
	}
	sum, n := 0.0, 0
	for _, r := range t.Rows {
		v, err := strconv.ParseFloat(r[idx], 64)
		if err == nil {
			sum += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BenchmarkTable2ShareExponents regenerates Table 2 (E1): measured
// HyperCube load over the M/p^{1/τ*} prediction across the query families.
func BenchmarkTable2ShareExponents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table2ShareExponents(benchCfg(int64(i)))
		b.ReportMetric(metric(b, t, "measured/predicted"), "load/pred")
	}
}

// BenchmarkTable3RoundsTradeoff regenerates Table 3 (E2): planner rounds
// must meet the r(ε) formulas.
func BenchmarkTable3RoundsTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table3RoundsTradeoff(benchCfg(int64(i)))
		b.ReportMetric(metric(b, t, "rounds at ε=0 (planner)"), "rounds")
	}
}

// BenchmarkTriangleUnequalSizes regenerates Example 3.17 (E3): the packing
// crossover at p = M/M1.
func BenchmarkTriangleUnequalSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.TriangleUnequalSizes(benchCfg(int64(i)))
		b.ReportMetric(metric(b, t, "measured/predicted"), "load/pred")
	}
}

// BenchmarkReplicationRate regenerates Corollary 3.19 (E4).
func BenchmarkReplicationRate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.ReplicationRate(benchCfg(int64(i)))
		b.ReportMetric(metric(b, t, "r/shape"), "r/shape")
	}
}

// BenchmarkSkewedJoin regenerates Example 4.1 (E5): the naive/skew-aware
// load separation under skew.
func BenchmarkSkewedJoin(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.SkewedJoin(benchCfg(int64(i)))
		b.ReportMetric(metric(b, t, "naive/aware"), "separation")
	}
}

// BenchmarkSkewedStar regenerates the §4.2.1/§4.2.3 star experiment (E6).
func BenchmarkSkewedStar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.SkewedStar(benchCfg(int64(i)))
		b.ReportMetric(metric(b, t, "aware/LB"), "load/LB")
	}
}

// BenchmarkSkewedTriangle regenerates the §4.2.2 triangle experiment (E7).
func BenchmarkSkewedTriangle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.SkewedTriangle(benchCfg(int64(i)))
		b.ReportMetric(metric(b, t, "vanilla/aware"), "separation")
	}
}

// BenchmarkChainMultiRound regenerates Examples 5.2/5.3 (E8).
func BenchmarkChainMultiRound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.ChainMultiRound(benchCfg(int64(i)))
		b.ReportMetric(metric(b, t, "executed"), "rounds")
	}
}

// BenchmarkCycleRounds regenerates Example 5.19 (E9).
func BenchmarkCycleRounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.CycleRounds(benchCfg(int64(i)))
		b.ReportMetric(metric(b, t, "executed"), "rounds")
	}
}

// BenchmarkConnectedComponents regenerates the Theorem 5.20 experiment (E10).
func BenchmarkConnectedComponents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.ConnectedComponents(benchCfg(int64(i)))
		b.ReportMetric(metric(b, t, "pointer-jump rounds"), "pj-rounds")
	}
}

// BenchmarkBallsInBins regenerates the Appendix A validation (E11).
func BenchmarkBallsInBins(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.BallsInBins(benchCfg(int64(i)))
		b.ReportMetric(metric(b, t, "empirical tail"), "tail")
	}
}

// BenchmarkLowerEqualsUpper regenerates Theorem 3.15 (E12).
func BenchmarkLowerEqualsUpper(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.LowerEqualsUpper(benchCfg(int64(i)))
		b.ReportMetric(metric(b, t, "max |log L_lower − log L_upper|"), "gap")
	}
}

// BenchmarkHyperCubeEndToEnd measures the simulator itself: one-round
// HyperCube triangle runs at increasing p (not a paper artifact; a
// throughput reference for the engine substrate).
func BenchmarkHyperCubeEndToEnd(b *testing.B) {
	for _, p := range []int{8, 64, 512} {
		b.Run("p="+strconv.Itoa(p), func(b *testing.B) {
			q := Triangle()
			rng := rand.New(rand.NewSource(1))
			db := MatchingDatabase(rng, q, 5000, 1<<20)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(q, db, WithServers(p), WithSeed(int64(i)))
				if err != nil || res.MaxLoadBits <= 0 {
					b.Fatal("no load")
				}
			}
			b.ReportMetric(float64(3*5000)/1e3, "ktuples/run")
		})
	}
}

// BenchmarkAnswerFraction regenerates the Theorem 3.5/3.7 experiment (E13).
func BenchmarkAnswerFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.AnswerFraction(benchCfg(int64(i)))
		b.ReportMetric(metric(b, t, "fraction found"), "fraction")
	}
}

// BenchmarkSpeedupCurve regenerates the Section 3.4 speedup experiment (E14).
func BenchmarkSpeedupCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.SpeedupCurve(benchCfg(int64(i)))
		b.ReportMetric(metric(b, t, "fitted slope"), "slope")
	}
}

// BenchmarkSampledStats regenerates the sampled-statistics experiment (E15).
func BenchmarkSampledStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.SampledStats(benchCfg(int64(i)))
		b.ReportMetric(metric(b, t, "sampled/oracle"), "load-ratio")
	}
}

// BenchmarkCartesianProduct regenerates the §6 product discussion (E16).
func BenchmarkCartesianProduct(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.CartesianProduct(benchCfg(int64(i)))
		b.ReportMetric(metric(b, t, "measured/predicted"), "load/pred")
	}
}

// BenchmarkAbortProbability regenerates the §2.1 abort experiment (E17).
func BenchmarkAbortProbability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.AbortProbability(benchCfg(int64(i)))
		b.ReportMetric(metric(b, t, "abort frequency"), "abort-freq")
	}
}
