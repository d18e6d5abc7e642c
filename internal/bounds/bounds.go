// Package bounds evaluates the paper's closed-form lower and upper bounds:
// the AGM output bound of Section 2.4, the one-round load and output
// bounds of Section 3, the skewed bounds of Section 4, and the multi-round
// round-count bounds of Section 5. These are the "paper-predicted" fields
// of the experiment harness's rows, which its tests compare against
// measured loads, answer counts and rounds.
package bounds

import (
	"math"

	"mpcquery/internal/packing"
	"mpcquery/internal/query"
)

// SpaceExponentLB returns 1 − 1/τ*(q), the smallest space exponent ε for
// which a one-round algorithm can compute q on skew-free data (Section 3.4,
// Table 2). An algorithm with load O(M/p^{1−ε'}) for ε' < this value
// reports a vanishing fraction of answers as p grows.
func SpaceExponentLB(q *query.Query) float64 {
	tau, _ := packing.TauStar(q)
	return 1 - 1/tau
}

// ExpectedOutput returns E[|q(I)|] = n^{k−a} Π_j m_j for the matching
// probability space with cardinalities m and domain size n (Lemma 3.6).
func ExpectedOutput(q *query.Query, m []float64, n float64) float64 {
	logOut := float64(q.NumVars()-q.TotalArity()) * math.Log(n)
	for _, mj := range m {
		logOut += math.Log(mj)
	}
	return math.Exp(logOut)
}

// AGMBound returns the Atserias–Grohe–Marx output-size bound, Friedgut's
// inequality with 0/1 weights (Section 2.4):
//
//	|q(I)| ≤ Π_j |S_j|^{u_j}   for any fractional edge cover u.
func AGMBound(sizes []float64, u []float64) float64 {
	logB := 0.0
	for j, uj := range u {
		if uj > 0 {
			logB += uj * math.Log(sizes[j])
		}
	}
	return math.Exp(logB)
}

// AnswerFractionUB returns the strongest Theorem 3.5 bound on the fraction
// of the expected answers that p servers with maximum load L can report:
//
//	min over packing vertices u ≠ 0 of (4L / (Σu_j · L(u,M,p)))^{Σ u_j},
//
// clamped to [0,1].
func AnswerFractionUB(q *query.Query, M []float64, p, L float64) float64 {
	best := 1.0
	for _, u := range packing.Vertices(q) {
		su := 0.0
		for _, w := range u {
			su += w
		}
		if su <= 0 {
			continue
		}
		lu := packing.Load(u, M, p)
		if lu <= 0 {
			continue
		}
		f := math.Pow(4*L/(su*lu), su)
		if f < best {
			best = f
		}
	}
	if best < 0 {
		best = 0
	}
	return best
}

// ReplicationRateLB returns the Corollary 3.19 lower bound on the
// replication rate of any one-round algorithm with maximum load L:
//
//	r ≥ c·L/ΣM_j · max_u Π_j (M_j/L)^{u_j},  c = (Σu_j/4)^{Σu_j},
//
// maximized over packing vertices.
func ReplicationRateLB(q *query.Query, M []float64, L float64) float64 {
	totalM := 0.0
	for _, mj := range M {
		totalM += mj
	}
	best := 0.0
	for _, u := range packing.Vertices(q) {
		su := 0.0
		logProd := 0.0
		for j, w := range u {
			su += w
			if w > 0 {
				logProd += w * math.Log(M[j]/L)
			}
		}
		if su < 1 {
			continue // the corollary's derivation needs Σu_j ≥ 1
		}
		c := math.Pow(su/4, su)
		r := c * L / totalM * math.Exp(logProd)
		if r > best {
			best = r
		}
	}
	return best
}

// ReplicationRateShape returns the constant-free shape (M/L)^{τ*−1} of the
// replication-rate bound for equal relation sizes M (Example 3.20: for C3
// this is Ω(sqrt(M/L))).
func ReplicationRateShape(q *query.Query, M, L float64) float64 {
	tau, _ := packing.TauStar(q)
	return math.Pow(M/L, tau-1)
}
