package experiments

import (
	"math/rand"

	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/query"
)

// AbortProbability regenerates the Section 2.1 / Corollary 3.3 claim that a
// randomized HyperCube run declaring load L = c·(predicted load) aborts
// only with (exponentially) small probability on skew-free data: the table
// sweeps the cap multiple c over many hash seeds and reports the measured
// abort frequency, which must fall steeply in c.
func AbortProbability(cfg Config) *Table {
	t := &Table{
		ID:    "E17",
		Ref:   "Section 2.1 / Corollary 3.3 (w.h.p. load)",
		Title: "abort probability of HyperCube under a declared load cap",
		Columns: []string{"cap multiple c", "aborts", "trials",
			"abort frequency"},
	}
	q := query.Triangle()
	m := cfg.scale(4000, 1000)
	p := 64
	trials := cfg.scale(60, 20)
	rng := rand.New(rand.NewSource(cfg.Seed + 15))
	db := data.MatchingDatabase(rng, q, m, int64(16*m))
	pl := core.PlanForDatabase(q, db, p, core.SkewFree)
	// Calibrate to the median measured load across a few seeds (the LP
	// prediction omits the per-relation replication constant).
	base := core.MaxLoadOverSeeds(pl, db, []int64{1, 2, 3})
	for _, c := range []float64{0.95, 1.05, 1.2, 1.5} {
		aborts := 0
		for tr := 0; tr < trials; tr++ {
			res := core.RunPlanWithCapNet(pl, db, cfg.Seed+int64(100+tr), c*base, engine.Env{})
			if res.Aborted() {
				aborts++
			}
		}
		t.Add(c, aborts, trials, float64(aborts)/float64(trials))
	}
	t.Note("C3 on matching data, m=%d, p=%d; the cap is relative to the worst load over 3 calibration seeds — frequencies collapse once c clears the hashing noise, as the Chernoff analysis predicts", m, p)
	return t
}
