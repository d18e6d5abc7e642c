package core

import (
	"math"
	"testing"

	"mpcquery/internal/packing"
)

// BenchmarkShareIntegerizationAblation compares the greedy integerization
// against naive flooring of p^{e_i}: the greedy variant should use more of
// the server budget (larger share product => lower load).
func BenchmarkShareIntegerizationAblation(b *testing.B) {
	exps := []float64{0.34, 0.33, 0.33}
	p := 100 // not a perfect power: flooring wastes budget
	naive := func() []int {
		sh := make([]int, len(exps))
		for i, e := range exps {
			sh[i] = int(math.Pow(float64(p), e))
			if sh[i] < 1 {
				sh[i] = 1
			}
		}
		return sh
	}
	b.Run("greedy", func(b *testing.B) {
		prod := 0
		for i := 0; i < b.N; i++ {
			sh := packing.IntegerShares(exps, p)
			prod = sh[0] * sh[1] * sh[2]
		}
		b.ReportMetric(float64(prod), "servers-used")
	})
	b.Run("floor", func(b *testing.B) {
		prod := 0
		for i := 0; i < b.N; i++ {
			sh := naive()
			prod = sh[0] * sh[1] * sh[2]
		}
		b.ReportMetric(float64(prod), "servers-used")
	})
}
