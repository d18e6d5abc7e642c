package experiments

import (
	"math"
	"math/rand"

	"mpcquery/internal/bounds"
	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/packing"
	"mpcquery/internal/query"
)

// answerSamples is the number of fresh matching databases E1 averages the
// answer count over, to compare with the Lemma 3.6 expectation.
const answerSamples = 20

// ShareExponentRow is one query of E1, measured on a matching database.
type ShareExponentRow struct {
	Query     string
	Exponents []float64 // share exponents of the LP optimum
	TauStar   float64
	EpsLB     float64 // the space-exponent lower bound 1 − 1/τ*
	Predicted float64 // M/p^{1/τ*} bits
	Measured  float64 // max load bits, input partitioned over the servers
	// InputServer is the max load bits of the same plan and seed under the
	// input-server model of Section 2.1 (relation S_j starts on server j).
	InputServer float64
	Answers     int     // |q(I)|
	AGM         float64 // the AGM bound Π_j m_j^{u_j} at a ρ* edge cover u
	Expected    float64 // Lemma 3.6: E[|q(I)|] over matching databases
	MeanAnswers float64 // mean |q(I)| over answerSamples fresh databases
	AnswersSE   float64 // the standard error of MeanAnswers
}

// Table2ShareExponents regenerates Table 2 (share exponents, τ*, and the
// space-exponent lower bound for C_k, T_k, L_k, B_{k,m}) and validates each
// row by running the HyperCube algorithm on matching data (p = 64): the
// measured load must track M/p^{1/τ*} within a small constant, both input
// models must load the servers alike, and the answer count must respect
// the AGM bound and, averaged over fresh databases, Lemma 3.6.
func Table2ShareExponents(cfg Config) []ShareExponentRow {
	p := 64
	m := cfg.scale(4000, 600)
	n := int64(8 * m)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []ShareExponentRow
	for _, q := range []*query.Query{
		query.Cycle(3), query.Cycle(4), query.Cycle(5), query.Cycle(6),
		query.Star(2), query.Star(3),
		query.Chain(3), query.Chain(4), query.Chain(5),
		query.Binom(3, 2), query.Binom(4, 3),
	} {
		tau, _ := packing.TauStar(q)
		_, cover := packing.RhoStar(q)
		db := data.MatchingDatabase(rng, q, m, n)
		stats := core.StatsBits(q, db)
		pl := core.PlanForDatabase(q, db, p, core.SkewFree)
		res := core.RunPlan(pl, db, cfg.Seed)
		sizes := make([]float64, q.NumAtoms())
		for j := range sizes {
			sizes[j] = float64(m)
		}
		var sum, sumSq float64
		for i := 0; i < answerSamples; i++ {
			c := float64(core.SequentialAnswer(q, data.MatchingDatabase(rng, q, m, n)).NumTuples())
			sum += c
			sumSq += c * c
		}
		mean := sum / answerSamples
		variance := (sumSq - answerSamples*mean*mean) / (answerSamples - 1)
		out = append(out, ShareExponentRow{
			Query:       q.Name,
			Exponents:   packing.ShareExponents(q, stats, float64(p)).Exponents,
			TauStar:     tau,
			EpsLB:       bounds.SpaceExponentLB(q),
			Predicted:   stats[0] / math.Pow(float64(p), 1/tau),
			Measured:    res.MaxLoadBits(),
			InputServer: core.RunPlanInputServers(pl, db, cfg.Seed).MaxLoadBits(),
			Answers:     res.Output.NumTuples(),
			AGM:         bounds.AGMBound(sizes, cover),
			Expected:    bounds.ExpectedOutput(q, sizes, float64(n)),
			MeanAnswers: mean,
			AnswersSE:   math.Sqrt(math.Max(variance, 0) / answerSamples),
		})
	}
	return out
}

// CrossoverRow is one server count of E3.
type CrossoverRow struct {
	P         int
	Packing   []float64 // the packing vertex u* attaining L_lower
	Speedup   float64   // the speedup exponent at p
	Predicted float64   // L_lower bits
	Measured  float64   // max load bits
}

// TriangleUnequalSizes regenerates Example 3.17 and Lemma 3.18: with
// M1 = M2/16 = M3/16, the optimal packing vertex switches from a unit
// vector (linear speedup, small relation broadcast) to (1/2,1/2,1/2) as p
// crosses M/M1 = 16, and the measured HyperCube load follows.
func TriangleUnequalSizes(cfg Config) []CrossoverRow {
	q := query.Triangle()
	m1 := cfg.scale(500, 120)
	m := 16 * m1
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	n := int64(8 * m)
	db := data.NewDatabase(n)
	db.Add(data.RandomMatching(rng, "S1", 2, m1, n))
	db.Add(data.RandomMatching(rng, "S2", 2, m, n))
	db.Add(data.RandomMatching(rng, "S3", 2, m, n))
	stats := core.StatsBits(q, db)
	var out []CrossoverRow
	for _, p := range []int{4, 8, 16, 64, 256} {
		lower, u := packing.LLower(q, stats, float64(p))
		out = append(out, CrossoverRow{
			P:         p,
			Packing:   u,
			Speedup:   packing.SpeedupExponent(q, stats, float64(p)),
			Predicted: lower,
			Measured:  core.Run(q, db, p, cfg.Seed, core.SkewFree).MaxLoadBits(),
		})
	}
	return out
}

// ReplicationRow is one server count of E4.
type ReplicationRow struct {
	P           int
	Measured    float64 // max load bits L
	Replication float64 // measured replication rate r
	Shape       float64 // sqrt(M/L), the bound's shape without constants
	LB          float64 // the Corollary 3.19 bound with its constants
}

// ReplicationRate regenerates Corollary 3.19 / Example 3.20: the measured
// replication rate of the HyperCube algorithm on C3 against the
// Ω(sqrt(M/L)) lower-bound shape. The HyperCube rate ≈ p^{1/3} meets the
// shape: r/shape stays Θ(1) as p grows.
func ReplicationRate(cfg Config) []ReplicationRow {
	q := query.Triangle()
	m := cfg.scale(4000, 600)
	rng := rand.New(rand.NewSource(cfg.Seed + 2))
	db := data.MatchingDatabase(rng, q, m, int64(8*m))
	stats := core.StatsBits(q, db)
	var out []ReplicationRow
	for _, p := range []int{8, 27, 64, 216} {
		res := core.Run(q, db, p, cfg.Seed, core.SkewFree)
		L := res.MaxLoadBits()
		out = append(out, ReplicationRow{
			P:           p,
			Measured:    L,
			Replication: res.ReplicationRate(),
			Shape:       bounds.ReplicationRateShape(q, stats[0], L),
			LB:          bounds.ReplicationRateLB(q, stats, L),
		})
	}
	return out
}

// LowerUpperRow is the single row of E12.
type LowerUpperRow struct {
	Trials     int
	MaxGap     float64 // max |log L_lower − log L_upper|
	WorstQuery string
}

// LowerEqualsUpper regenerates Theorem 3.15 numerically: over random
// queries and statistics, max_u L(u,M,p) over packing vertices equals the
// share-LP optimum p^λ. Gaps at the 1e-9 level are LP solver tolerance.
func LowerEqualsUpper(cfg Config) []LowerUpperRow {
	row := LowerUpperRow{Trials: cfg.scale(300, 60)}
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	for i := 0; i < row.Trials; i++ {
		q := randomConnectedQuery(rng)
		p := math.Pow(2, float64(2+rng.Intn(8)))
		M := make([]float64, q.NumAtoms())
		for j := range M {
			M[j] = p * math.Pow(2, float64(rng.Intn(16)))
		}
		lower, _ := packing.LLower(q, M, p)
		upper := packing.ShareExponents(q, M, p).Load()
		if gap := math.Abs(math.Log(lower) - math.Log(upper)); gap > row.MaxGap {
			row.MaxGap = gap
			row.WorstQuery = q.String()
		}
	}
	return []LowerUpperRow{row}
}

func randomConnectedQuery(r *rand.Rand) *query.Query {
	k := 2 + r.Intn(4)
	l := 1 + r.Intn(4)
	atoms := make([]query.Atom, 0, l)
	for j := 0; j < l; j++ {
		a := r.Intn(k)
		if j > 0 {
			a = r.Intn(min(k, j+1))
		}
		b := r.Intn(k)
		atoms = append(atoms, query.Atom{
			Name: "S" + string(rune('A'+j)),
			Vars: []string{string(rune('a' + a)), string(rune('a' + b))},
		})
	}
	return query.New("rand", atoms...)
}
