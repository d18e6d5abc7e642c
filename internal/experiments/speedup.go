package experiments

import (
	"math"
	"math/rand"

	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/packing"
	"mpcquery/internal/query"
)

// SpeedupRow is one query of E14.
type SpeedupRow struct {
	Query     string
	TauStar   float64
	Predicted float64 // −1/τ*
	Fitted    float64 // the least-squares log-log slope of load against p
}

// SpeedupCurve regenerates the Section 3.4 "Speedup of the HyperCube"
// discussion as a measured figure: for equal-size relations the load decays
// as p^{-1/τ*}, so the log-log slope of measured load against p must fit
// −1/τ* per query family. The slope is a least-squares fit over
// p ∈ {8, …, 256}; integerized shares quantize the curve (shares only
// change at powers), so fits land near, not on, −1/τ*.
func SpeedupCurve(cfg Config) []SpeedupRow {
	m := cfg.scale(6000, 1500)
	rng := rand.New(rand.NewSource(cfg.Seed + 12))
	var out []SpeedupRow
	for _, q := range []*query.Query{query.Triangle(), query.Chain(3), query.Star(2), query.Cycle(4)} {
		db := data.MatchingDatabase(rng, q, m, int64(16*m))
		var xs, ys []float64
		for _, p := range []int{8, 16, 32, 64, 128, 256} {
			xs = append(xs, math.Log(float64(p)))
			ys = append(ys, math.Log(core.Run(q, db, p, cfg.Seed, core.SkewFree).MaxLoadBits()))
		}
		tau, _ := packing.TauStar(q)
		out = append(out, SpeedupRow{
			Query:     q.Name,
			TauStar:   tau,
			Predicted: -1 / tau,
			Fitted:    leastSquaresSlope(xs, ys),
		})
	}
	return out
}

// leastSquaresSlope fits y = a + b·x and returns b.
func leastSquaresSlope(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
