package experiments

import (
	"math"
	"math/rand"

	"mpcquery/internal/bounds"
	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/query"
	"mpcquery/internal/skew"
)

// SkewedJoinRow is one skew level of E5 (max load bits per algorithm).
type SkewedJoinRow struct {
	HeavyFraction float64 // share of m on one z-value
	Naive         float64 // parallel hash join, all shares on z
	Oblivious     float64 // skew-oblivious HyperCube, LP (18)
	Aware         float64 // skew-aware, Section 4.2.1
	LB            float64 // the lower bound (20)
}

// SkewedJoin regenerates Example 4.1: the simple join q(x,y,z) = S1(x,z),
// S2(y,z) under increasing skew (p = 16). The naive parallel hash join
// degrades to load Θ(M) — at full skew it sends all 2m tuples to one
// server; the skew-oblivious HyperCube holds M/p^{1/3}; the skew-aware
// algorithm tracks the heavy-hitter lower bound (20).
func SkewedJoin(cfg Config) []SkewedJoinRow {
	q := query.Star(2)
	m := cfg.scale(1500, 400)
	p := 16
	rng := rand.New(rand.NewSource(cfg.Seed + 4))
	var out []SkewedJoinRow
	for _, frac := range []float64{0, 0.25, 0.5, 1.0} {
		heavy := map[int64]int{}
		if frac > 0 {
			heavy[7] = int(frac * float64(m))
		}
		db := data.SkewedStarDatabase(rng, 2, m, int64(16*m), heavy)
		shares := []int{1, 1, 1}
		shares[q.VarIndex("z")] = p
		out = append(out, SkewedJoinRow{
			HeavyFraction: frac,
			Naive:         core.RunPlan(core.PlanWithShares(q, db, shares), db, cfg.Seed).MaxLoadBits(),
			Oblivious:     core.Run(q, db, p, cfg.Seed, core.SkewOblivious).MaxLoadBits(),
			Aware:         skewAware(q, db, p, cfg.Seed).MaxLoadBits(),
			LB:            bounds.StarSkewLB(starFreqBits(q, db), float64(p)),
		})
	}
	return out
}

// skewAware runs the skew-aware one-round algorithm of Section 4.2 — the
// generic heavy/light planner on exact statistics — as SkewedStar and
// SkewedTriangle do.
func skewAware(q *query.Query, db *data.Database, p int, seed int64) *engine.RunRecord {
	return skew.RunGenericPlannedNet(skew.PrepareGeneric(q, db, p), q, db, seed, 0, nil, engine.Env{})
}

// starFreqBits returns the z-frequency statistics of a star query database
// in bits, the input to the bound (20).
func starFreqBits(q *query.Query, db *data.Database) []map[int64]float64 {
	out := make([]map[int64]float64, q.NumAtoms())
	for j, a := range q.Atoms {
		out[j] = columnBits(db, a.Name, 0)
	}
	return out
}

// columnBits returns the size in bits of σ_{col=h}(rel) for every value h
// of one column.
func columnBits(db *data.Database, rel string, col int) map[int64]float64 {
	r := db.Get(rel)
	return data.FrequenciesBits(data.ColumnFrequencies(r, col), r.Arity, db.N)
}

// SkewedStarRow is one heavy-hitter profile of E6 (max load bits).
type SkewedStarRow struct {
	Profile string
	Vanilla float64 // skew-free HyperCube
	Aware   float64 // skew-aware, Section 4.2.1
	LB      float64 // the lower bound (20)
}

// SkewedStar regenerates the Section 4.2.1/4.2.3 star-query experiment for
// k=3 (p = 27): measured skew-aware load against the matching lower bound
// (20). aware/LB stays Θ(1) across profiles — the algorithm is optimal to
// constants (Theorem 4.4).
func SkewedStar(cfg Config) []SkewedStarRow {
	q := query.Star(3)
	m := cfg.scale(1350, 540)
	p := 27
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	// Heavy counts sit just above the m/p threshold: the output of T3 grows
	// as count³, so the profiles stay mild to keep the Cartesian products
	// materializable (the load comparison is unaffected).
	c := 2 * m / p
	var out []SkewedStarRow
	for _, pr := range []struct {
		name  string
		heavy map[int64]int
	}{
		{"no skew", nil},
		{"one hh (2m/p)", map[int64]int{3: c}},
		{"two hh (2m/p, 1.5m/p)", map[int64]int{3: c, 9: 3 * m / (2 * p)}},
	} {
		db := data.SkewedStarDatabase(rng, 3, m, int64(16*m), pr.heavy)
		out = append(out, SkewedStarRow{
			Profile: pr.name,
			Vanilla: core.Run(q, db, p, cfg.Seed, core.SkewFree).MaxLoadBits(),
			Aware:   skewAware(q, db, p, cfg.Seed).MaxLoadBits(),
			LB:      bounds.StarSkewLB(starFreqBits(q, db), float64(p)),
		})
	}
	return out
}

// SkewedTriangleRow is one heavy count of E7 (max load bits).
type SkewedTriangleRow struct {
	HeavyCount int     // tuples of S1 and S3 with x1 = the heavy value
	Vanilla    float64 // skew-free HyperCube
	Aware      float64 // skew-aware heavy/light patterns
	UB         float64 // the Section 4.2.2 Õ bound
	SkewFree   float64 // M/p^{2/3}
	// SkewedLB is the Theorem 4.4 lower bound from the x1-statistics,
	// without its constant min_j (a_j−d_j)/(4a_j) = 1/8.
	SkewedLB float64
}

// SkewedTriangle regenerates the Section 4.2.2 experiment: C3 with a
// heavy value planted on x1 in S1 and S3 (the paper's Case-2 shape,
// p = 64), comparing the vanilla HyperCube, the skew-aware heavy/light
// pattern algorithm, the Õ upper bound and the Theorem 4.4 lower bound.
func SkewedTriangle(cfg Config) []SkewedTriangleRow {
	q := query.Triangle()
	m := cfg.scale(4000, 800)
	p := 64
	rng := rand.New(rand.NewSource(cfg.Seed + 6))
	var out []SkewedTriangleRow
	for _, hc := range []int{0, m / 16, m / 4, m / 2} {
		db := data.SkewedTriangleDatabase(rng, m, int64(16*m), 5, hc)
		M := db.Get("S1").SizeBits(db.N)
		// x1 is column 0 of S1 and column 1 of S3; S2 does not hold it.
		x1 := bounds.FreqStats{Var: "x1", Bits: []map[int64]float64{
			columnBits(db, "S1", 0), nil, columnBits(db, "S3", 1)}}
		out = append(out, SkewedTriangleRow{
			HeavyCount: hc,
			Vanilla:    core.Run(q, db, p, cfg.Seed, core.SkewFree).MaxLoadBits(),
			Aware:      skewAware(q, db, p, cfg.Seed).MaxLoadBits(),
			UB:         triangleBound(db, M, float64(p)),
			SkewFree:   M / math.Pow(float64(p), 2.0/3),
			SkewedLB:   bounds.SkewedLB(q, x1, float64(p)),
		})
	}
	return out
}

// triangleBound evaluates the Section 4.2.2 Õ bound from the database's
// actual heavy-hitter frequencies.
func triangleBound(db *data.Database, M, p float64) float64 {
	bpv := data.BitsPerValue(db.N)
	heavyBits := func(rel *data.Relation, col int) map[int64]float64 {
		thr := max(int(float64(rel.NumTuples())/math.Cbrt(p)), 2)
		hh := map[int64]int{}
		for _, run := range data.Heavy(rel.Vals(), rel.Arity, col, thr) {
			hh[run.Value] = run.Count
		}
		return data.FrequenciesBits(hh, rel.Arity, int64(1)<<uint(bpv))
	}
	s1, s2, s3 := db.Get("S1"), db.Get("S2"), db.Get("S3")
	// x1 lives in S1 col0 and S3 col1; x2 in S1 col1, S2 col0; x3 in S2
	// col1, S3 col0.
	return bounds.TriangleSkewUB(M,
		heavyBits(s1, 0), heavyBits(s3, 1),
		heavyBits(s1, 1), heavyBits(s2, 0),
		heavyBits(s2, 1), heavyBits(s3, 0),
		p)
}
