package experiments

import (
	"math/rand"

	"mpcquery/internal/bounds"
	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/packing"
	"mpcquery/internal/query"
)

// AnswerFractionRow is one server count of E13.
type AnswerFractionRow struct {
	P       int
	Found   float64 // fraction of the answers found under the cap 3M/p
	UB      float64 // the Theorem 3.5 fraction bound at that cap
	AtLower float64 // fraction found under the cap 8·L_lower
}

// AnswerFraction regenerates the Theorem 3.5/3.7 prediction: a one-round
// algorithm for C3 whose load is capped at 3M/p (space exponent 0, below
// the required 1/3) reports a vanishing fraction of the answers as p
// grows, while a cap proportional to L_lower = M/p^{2/3} retains them all.
// The relations are dense over a small domain, so C3 has many answers.
func AnswerFraction(cfg Config) []AnswerFractionRow {
	q := query.Triangle()
	m := cfg.scale(4000, 1200)
	n := int64(cfg.scale(256, 128))
	rng := rand.New(rand.NewSource(cfg.Seed + 11))
	db := data.NewDatabase(n)
	for _, a := range q.Atoms {
		rel := data.NewRelation(a.Name, 2)
		for i := 0; i < m; i++ {
			rel.Append(rng.Int63n(n), rng.Int63n(n))
		}
		db.Add(rel)
	}
	stats := core.StatsBits(q, db)
	M := stats[0]
	var out []AnswerFractionRow
	for _, p := range []int{8, 64, 512, 4096} {
		pl := core.PlanForDatabase(q, db, p, core.SkewFree)
		capBits := 3 * M / float64(p)
		lower, _ := packing.LLower(q, stats, float64(p))
		out = append(out, AnswerFractionRow{
			P:       p,
			Found:   core.RunPlanCapped(pl, db, cfg.Seed, capBits).Fraction,
			UB:      bounds.AnswerFractionUB(q, stats, float64(p), capBits),
			AtLower: core.RunPlanCapped(pl, db, cfg.Seed, 8*lower).Fraction,
		})
	}
	return out
}
