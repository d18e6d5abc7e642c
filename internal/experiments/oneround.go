package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"mpcquery/internal/bounds"
	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/packing"
	"mpcquery/internal/query"
)

// Table2ShareExponents regenerates Table 2 (share exponents, τ*, and the
// space-exponent lower bound for C_k, T_k, L_k, B_{k,m}) and validates each
// row by running the HyperCube algorithm on matching data: the measured
// load must track M/p^{1/τ*} within a small constant.
func Table2ShareExponents(cfg Config) *Table {
	t := &Table{
		ID:    "E1",
		Ref:   "Table 2",
		Title: "share exponents, τ*, and space-exponent lower bound (equal sizes)",
		Columns: []string{"query", "share exponents", "τ*", "ε lower bound",
			"predicted L (bits)", "measured L (bits)", "measured/predicted"},
	}
	p := 64
	m := cfg.scale(4000, 600)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for _, q := range []*query.Query{
		query.Cycle(3), query.Cycle(4), query.Cycle(5), query.Cycle(6),
		query.Star(2), query.Star(3),
		query.Chain(3), query.Chain(4), query.Chain(5),
		query.Binom(3, 2), query.Binom(4, 3),
	} {
		tau, _ := packing.TauStar(q)
		db := data.MatchingDatabase(rng, q, m, int64(8*m))
		stats := core.StatsBits(q, db)
		sh := packing.ShareExponents(q, stats, float64(p))
		predicted := stats[0] / math.Pow(float64(p), 1/tau)
		res := core.Run(q, db, p, cfg.Seed, core.SkewFree)
		t.Add(q.Name, expString(sh.Exponents), tau, bounds.SpaceExponentLB(q),
			predicted, res.MaxLoadBits(), res.MaxLoadBits()/predicted)
	}
	t.Note("p=%d, m=%d tuples per relation; measured load is bits received in the single shuffle round", p, m)
	return t
}

func expString(e []float64) string {
	s := "("
	for i, v := range e {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%.2f", v)
	}
	return s + ")"
}

// TriangleUnequalSizes regenerates Example 3.17 and Lemma 3.18: with
// M1 < M2 = M3, the optimal packing vertex switches from a unit vector
// (linear speedup, small relation broadcast) to (1/2,1/2,1/2) as p crosses
// M/M1, and the measured HyperCube load follows.
func TriangleUnequalSizes(cfg Config) *Table {
	t := &Table{
		ID:    "E3",
		Ref:   "Example 3.17 / Lemma 3.18",
		Title: "triangle with unequal sizes: packing crossover at p = M/M1",
		Columns: []string{"p", "best packing u*", "speedup exponent",
			"predicted L (bits)", "measured L (bits)", "measured/predicted"},
	}
	q := query.Triangle()
	m1 := cfg.scale(500, 120)
	m := 16 * m1 // crossover at p = M/M1 = 16
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	n := int64(8 * m)
	db := data.NewDatabase(n)
	db.Add(data.RandomMatching(rng, "S1", 2, m1, n))
	db.Add(data.RandomMatching(rng, "S2", 2, m, n))
	db.Add(data.RandomMatching(rng, "S3", 2, m, n))
	stats := core.StatsBits(q, db)
	for _, p := range []int{4, 8, 16, 64, 256} {
		lower, u := packing.LLower(q, stats, float64(p))
		se := packing.SpeedupExponent(q, stats, float64(p))
		res := core.Run(q, db, p, cfg.Seed, core.SkewFree)
		t.Add(p, packString(u), se, lower, res.MaxLoadBits(), res.MaxLoadBits()/lower)
	}
	t.Note("M1 = M/16: for p ≤ 16 the unit-vector packing wins (broadcast S1, linear speedup); beyond, (1/2,1/2,1/2) with p^{2/3} speedup")
	return t
}

func packString(u []float64) string {
	s := "("
	for i, v := range u {
		if i > 0 {
			s += ","
		}
		s += trimFloat(v)
	}
	return s + ")"
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%d", int(v))
	}
	return fmt.Sprintf("%.2g", v)
}

// ReplicationRate regenerates Corollary 3.19 / Example 3.20: the measured
// replication rate of the HyperCube algorithm on C3 against the
// Ω(sqrt(M/L)) lower-bound shape.
func ReplicationRate(cfg Config) *Table {
	t := &Table{
		ID:    "E4",
		Ref:   "Corollary 3.19 / Example 3.20",
		Title: "replication rate vs load for the triangle query",
		Columns: []string{"p", "measured L (bits)", "measured r",
			"shape sqrt(M/L)", "bound with constants", "r/shape"},
	}
	q := query.Triangle()
	m := cfg.scale(4000, 600)
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	db := data.MatchingDatabase(rng, q, m, int64(8*m))
	stats := core.StatsBits(q, db)
	for _, p := range []int{8, 27, 64, 216} {
		res := core.Run(q, db, p, cfg.Seed, core.SkewFree)
		L := res.MaxLoadBits()
		shape := bounds.ReplicationRateShape(q, stats[0], L)
		lb := bounds.ReplicationRateLB(q, stats, L)
		t.Add(p, L, res.ReplicationRate(), shape, lb, res.ReplicationRate()/shape)
	}
	t.Note("the HyperCube replication rate ≈ p^{1/3} meets the sqrt(M/L) shape: r/shape stays Θ(1) as p grows")
	return t
}

// LowerEqualsUpper regenerates Theorem 3.15 numerically: over random
// queries and statistics, max_u L(u,M,p) over packing vertices equals the
// share-LP optimum p^λ.
func LowerEqualsUpper(cfg Config) *Table {
	t := &Table{
		ID:      "E12",
		Ref:     "Theorem 3.15",
		Title:   "L_lower = L_upper over random queries and statistics",
		Columns: []string{"trials", "max |log L_lower − log L_upper|", "worst query"},
	}
	trials := cfg.scale(300, 60)
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	worstGap := 0.0
	worstQuery := ""
	for i := 0; i < trials; i++ {
		q := randomConnectedQuery(rng)
		p := math.Pow(2, float64(2+rng.Intn(8)))
		M := make([]float64, q.NumAtoms())
		for j := range M {
			M[j] = p * math.Pow(2, float64(rng.Intn(16)))
		}
		lower, _ := packing.LLower(q, M, p)
		upper := packing.ShareExponents(q, M, p).Load()
		gap := math.Abs(math.Log(lower) - math.Log(upper))
		if gap > worstGap {
			worstGap = gap
			worstQuery = q.String()
		}
	}
	t.Add(trials, worstGap, worstQuery)
	t.Note("gaps at the 1e-9 level are LP solver tolerance; the theorem predicts exact equality")
	return t
}

func randomConnectedQuery(r *rand.Rand) *query.Query {
	k := 2 + r.Intn(4)
	l := 1 + r.Intn(4)
	atoms := make([]query.Atom, 0, l)
	for j := 0; j < l; j++ {
		a := r.Intn(k)
		if j > 0 {
			a = r.Intn(minInt(k, j+1))
		}
		b := r.Intn(k)
		atoms = append(atoms, query.Atom{
			Name: "S" + string(rune('A'+j)),
			Vars: []string{string(rune('a' + a)), string(rune('a' + b))},
		})
	}
	return query.New("rand", atoms...)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
