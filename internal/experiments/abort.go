package experiments

import (
	"math/rand"

	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/query"
)

// AbortRow is one cap multiple of E17.
type AbortRow struct {
	CapMultiple float64 // c, the cap over the calibrated load
	Aborts      int
	Trials      int
}

// AbortProbability regenerates the Section 2.1 / Corollary 3.3 claim that a
// randomized HyperCube run declaring load L = c·(predicted load) aborts
// only with (exponentially) small probability on skew-free data: C3 on a
// matching database (p = 64), the cap multiple c swept over many hash
// seeds. The abort frequency must collapse once c clears the hashing noise,
// as the Chernoff analysis predicts.
func AbortProbability(cfg Config) []AbortRow {
	q := query.Triangle()
	m := cfg.scale(4000, 1000)
	p := 64
	trials := cfg.scale(60, 20)
	rng := rand.New(rand.NewSource(cfg.Seed + 15))
	db := data.MatchingDatabase(rng, q, m, int64(16*m))
	pl := core.PlanForDatabase(q, db, p, core.SkewFree)
	// Calibrate to the worst measured load across a few seeds (the LP
	// prediction omits the per-relation replication constant).
	base := core.MaxLoadOverSeeds(pl, db, []int64{1, 2, 3})
	var out []AbortRow
	for _, c := range []float64{0.95, 1.05, 1.2, 1.5} {
		row := AbortRow{CapMultiple: c, Trials: trials}
		for tr := 0; tr < trials; tr++ {
			if core.RunPlanWithCapNet(pl, db, cfg.Seed+int64(100+tr), c*base, engine.Env{}).Aborted() {
				row.Aborts++
			}
		}
		out = append(out, row)
	}
	return out
}
