package experiments

import (
	"math/rand"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/query"
	"mpcquery/internal/skew"
)

// SampledStatsRow is one sample size of E15.
type SampledStatsRow struct {
	Sample   int     // sample per server
	Oracle   float64 // max load bits on exact statistics
	Sampled  float64 // max load bits on sampled statistics
	Rounds   int     // rounds of the sampled run, statistics included
	OutputOK bool    // the sampled run's output equals the oracle run's
}

// SampledStats regenerates the Section 1 statistics assumption: heavy-hitter
// information "can be easily obtained in advance from small samples of the
// input". The star algorithm driven by exact statistics (the oracle the
// paper assumes) is compared with the same algorithm fed by the one-round
// distributed sampling protocol across sample sizes (heavy z-values at m/2
// and m/8, p = 16): loads converge once samples resolve the m/p threshold,
// and estimates only affect load, never the output.
func SampledStats(cfg Config) []SampledStatsRow {
	q := query.Star(2)
	m := cfg.scale(3000, 800)
	p := 16
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	db := data.SkewedStarDatabase(rng, 2, m, int64(16*m), map[int64]int{
		7: m / 2, 9: m / 8,
	})
	oracle := skewAware(q, db, p, cfg.Seed)
	var out []SampledStatsRow
	spec := skew.StarStatsSpec(q, db, p)
	for _, sample := range []int{10, 50, 200, m} {
		st := spec.Run(p, sample, cfg.Seed, 0)
		gp := skew.PrepareGenericFromStats(q, db, p, spec, st.PerAtom)
		sampled := skew.RunGenericPlannedNet(gp, q, db, cfg.Seed, 0, nil, engine.Env{})
		skew.AddStatsCharges(sampled, st)
		out = append(out, SampledStatsRow{
			Sample:   sample,
			Oracle:   oracle.MaxLoadBits(),
			Sampled:  sampled.MaxLoadBits(),
			Rounds:   len(sampled.Rounds),
			OutputOK: data.Equal(oracle.Output, sampled.Output),
		})
	}
	return out
}
