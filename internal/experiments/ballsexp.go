package experiments

import (
	"math/rand"

	"mpcquery/internal/ballsbins"
)

// BallsRow is one weight profile and deviation δ of E11.
type BallsRow struct {
	Weights   string
	K         int     // bins
	Beta      float64 // the largest weight, in units of the mean bin load
	Delta     float64
	Empirical float64 // empirical P(some bin exceeds (1+δ)·mean)
	Chernoff  float64 // K·e^{−h(δ)/β}
	KL        float64 // the Theorem A.2 bound
}

// BallsInBins regenerates the Appendix A validation (Theorem A.1,
// Lemma 3.2, Lemma 4.2): empirical tail probabilities of hash-partitioned
// weighted balls against the Chernoff bound K·e^{−h(δ)/β}, for uniform and
// skewed weights. With uniform weights the bound dominates the empirical
// tail and both decay fast in δ; a single heavy ball keeps the tail at 1
// until δ exceeds its weight — exactly why the skew algorithms exist.
func BallsInBins(cfg Config) []BallsRow {
	rng := rand.New(rand.NewSource(cfg.Seed + 10))
	k := 32
	n := cfg.scale(3200, 1600)
	trials := cfg.scale(400, 120)
	var out []BallsRow
	add := func(name string, w []float64, beta float64, deltas []float64) {
		for _, delta := range deltas {
			out = append(out, BallsRow{
				Weights:   name,
				K:         k,
				Beta:      beta,
				Delta:     delta,
				Empirical: ballsbins.EmpiricalTail(rng, w, k, delta, trials),
				Chernoff:  ballsbins.TailBound(k, beta, delta),
				KL:        ballsbins.KLTailBound(k, beta, 1+delta),
			})
		}
	}
	add("uniform", ballsbins.UniformWeights(n), float64(k)/float64(n), []float64{0.2, 0.4, 0.8})
	// One ball carries 20% of the mass: β = 0.2·K and the bound degrades
	// to the trivial 1, matching the observed heavy tail (the motivation
	// for handling heavy hitters separately, Lemma 4.2).
	add("one ball = 20%", ballsbins.SkewedWeights(n, 0.2), 0.2*float64(k), []float64{0.8, 2, 5})
	return out
}
