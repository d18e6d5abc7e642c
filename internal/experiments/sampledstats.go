package experiments

import (
	"math/rand"

	"mpcquery/internal/data"
	"mpcquery/internal/query"
	"mpcquery/internal/skew"
)

// SampledStats regenerates the Section 1 statistics assumption: heavy-hitter
// information "can be easily obtained in advance from small samples of the
// input". The table compares the star algorithm driven by exact statistics
// (the oracle the paper assumes) against the same algorithm fed by the
// one-round distributed sampling protocol, across sample sizes — loads
// converge once samples resolve the m/p threshold, and the statistics
// round itself stays far cheaper than the data round.
func SampledStats(cfg Config) *Table {
	t := &Table{
		ID:    "E15",
		Ref:   "Section 1 (statistics from samples)",
		Title: "sampled vs oracle heavy-hitter statistics for the skewed join",
		Columns: []string{"sample/server", "oracle L (bits)", "sampled L (bits)",
			"sampled/oracle", "rounds (sampled)"},
	}
	q := query.Star(2)
	m := cfg.scale(3000, 800)
	p := 16
	rng := rand.New(rand.NewSource(cfg.Seed + 13))
	db := data.SkewedStarDatabase(rng, 2, m, int64(16*m), map[int64]int{
		7: m / 2, 9: m / 8,
	})
	oracle := skewAware(q, db, p, cfg.Seed)
	for _, sample := range []int{10, 50, 200, m} {
		sampled := skew.RunStarSampled(q, db, p, cfg.Seed, sample)
		if !data.Equal(oracle.Output, sampled.Output) {
			panic("experiments: sampled statistics changed the output")
		}
		t.Add(sample, oracle.MaxLoadBits(), sampled.MaxLoadBits(),
			sampled.MaxLoadBits()/oracle.MaxLoadBits(), len(sampled.Rounds))
	}
	t.Note("m=%d, p=%d, heavy z-values at m/2 and m/8; output equality is asserted for every row — estimates only affect load", m, p)
	return t
}
