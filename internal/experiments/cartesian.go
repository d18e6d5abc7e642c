package experiments

import (
	"math"
	"math/rand"

	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/query"
)

// CartesianRow is one server count of E16.
type CartesianRow struct {
	P           int
	Shares      []int   // the share LP's integer shares of x and y
	Measured    float64 // max load bits
	Predicted   float64 // 2M/√p bits
	Replication float64
}

// CartesianProduct regenerates the Section 6 discussion (Ullman's drug
// interaction example): computing R(x) × S(y) with p known, the optimal
// strategy partitions each set into √p groups and assigns one pair of
// groups per server — load 2n/√p — rather than the replication-heavy or
// single-reducer extremes of the MapReduce formulation. The HyperCube share
// LP discovers the √p×√p grid on its own; every output pair is produced at
// exactly one server, and replication grows as √p, the unavoidable price
// of the product.
func CartesianProduct(cfg Config) []CartesianRow {
	q := query.New("product",
		query.Atom{Name: "R", Vars: []string{"x"}},
		query.Atom{Name: "S", Vars: []string{"y"}},
	)
	m := cfg.scale(4000, 1000)
	n := int64(16 * m)
	rng := rand.New(rand.NewSource(cfg.Seed + 14))
	db := data.NewDatabase(n)
	db.Add(data.RandomMatching(rng, "R", 1, m, n))
	db.Add(data.RandomMatching(rng, "S", 1, m, n))
	M := db.Get("R").SizeBits(n)
	var out []CartesianRow
	for _, p := range []int{4, 16, 64, 256} {
		pl := core.PlanForDatabase(q, db, p, core.SkewFree)
		res := core.RunPlan(pl, db, cfg.Seed)
		out = append(out, CartesianRow{
			P:           p,
			Shares:      pl.Shares,
			Measured:    res.MaxLoadBits(),
			Predicted:   2 * M / math.Sqrt(float64(p)),
			Replication: res.ReplicationRate(),
		})
	}
	return out
}
