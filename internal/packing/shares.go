package packing

import (
	"fmt"
	"math"

	"mpcquery/internal/lp"
	"mpcquery/internal/query"
)

// Shares is the solution of a share-optimization LP for the HyperCube
// algorithm: one exponent per variable of the query, plus the optimal load
// exponent λ = log_p L.
type Shares struct {
	Query     *query.Query
	Exponents []float64 // e_i per variable, Σ e_i ≤ 1
	Lambda    float64   // λ = log_p(L)
	P         float64   // number of servers used to form µ_j

	// trivial marks the degenerate single-server solution (p ≤ 1), where
	// λ = log_p L is undefined: the lone server receives every input bit, so
	// Load() reports trivialLoad = Σ_j M_j instead of p^λ.
	trivial     bool
	trivialLoad float64
}

// Load returns the optimized load L = p^λ (in the same units as the
// statistics passed to the solver, i.e. bits if M was in bits). On the
// degenerate single-server instance it returns Σ_j M_j.
func (s Shares) Load() float64 {
	if s.trivial {
		return s.trivialLoad
	}
	return math.Pow(s.P, s.Lambda)
}

// trivialShares is the p ≤ 1 solution shared by both LPs: all exponents
// zero (every share is 1), load = the whole input.
func trivialShares(q *query.Query, M []float64, p float64) Shares {
	return Shares{Query: q, Exponents: make([]float64, q.NumVars()), P: p,
		trivial: true, trivialLoad: sum(M)}
}

// IntegerShares rounds fractional share exponents e (for p servers) to
// integer shares with product at most p: starting from all-ones, it
// repeatedly increments the dimension whose integer share is furthest below
// its fractional target p^{e_i}, as long as the product stays within p.
// Every grid in the repository is rounded by it: HyperCube's, and the
// residual grids of the skew layouts.
func IntegerShares(e []float64, p int) []int {
	k := len(e)
	target := make([]float64, k)
	for i, ei := range e {
		target[i] = math.Pow(float64(p), ei)
	}
	shares := make([]int, k)
	for i := range shares {
		shares[i] = 1
	}
	prod := 1
	blocked := make([]bool, k)
	for {
		best := -1
		bestGap := 1.0 // ratio share/target; grow the most underallocated
		for i := 0; i < k; i++ {
			if blocked[i] {
				continue
			}
			gap := float64(shares[i]) / target[i]
			if gap < bestGap-1e-12 {
				bestGap = gap
				best = i
			}
		}
		if best < 0 {
			return shares
		}
		if prod/shares[best]*(shares[best]+1) > p {
			blocked[best] = true
			continue
		}
		prod = prod / shares[best] * (shares[best] + 1)
		shares[best]++
	}
}

// ShareExponents solves the paper's LP (10): given statistics M (sizes of
// the ℓ relations, in bits) and p servers, find share exponents e minimizing
// λ subject to
//
//	Σ_i e_i ≤ 1,   ∀j: Σ_{i ∈ Sj} e_i + λ ≥ µ_j,   e ≥ 0, λ ≥ 0,
//
// where µ_j = log_p M_j. The optimal load of the HyperCube algorithm is then
// L_upper = p^λ (Theorem 3.4).
func ShareExponents(q *query.Query, M []float64, p float64) Shares {
	if len(M) != q.NumAtoms() {
		panic(fmt.Sprintf("packing: %d statistics for %d atoms", len(M), q.NumAtoms()))
	}
	if p <= 1 {
		// One server: shares are all 1 and it receives everything; there is
		// no LP to solve (µ_j = log_p M_j is undefined at p = 1).
		return trivialShares(q, M, p)
	}
	k := q.NumVars()
	n := k + 1 // e_1..e_k, λ
	obj := make([]float64, n)
	obj[k] = 1 // minimize λ
	prob := &lp.Problem{NumVars: n, Objective: obj}
	// Σ e_i ≤ 1
	row := make([]float64, n)
	for i := 0; i < k; i++ {
		row[i] = 1
	}
	prob.Constraints = append(prob.Constraints, lp.Constraint{Coeffs: row, Op: lp.LE, RHS: 1})
	// ∀j: Σ_{i∈Sj} e_i + λ ≥ µ_j
	for j, a := range q.Atoms {
		mu := math.Log(M[j]) / math.Log(p)
		r := make([]float64, n)
		for _, v := range a.DistinctVars() {
			r[q.VarIndex(v)] = 1
		}
		r[k] = 1
		prob.Constraints = append(prob.Constraints, lp.Constraint{Coeffs: r, Op: lp.GE, RHS: mu})
	}
	s := lp.Solve(prob)
	if s.Status != lp.Optimal {
		panic(fmt.Sprintf("packing: share LP %v for %s", s.Status, q))
	}
	return Shares{Query: q, Exponents: s.X[:k], Lambda: s.X[k], P: p}
}

// SkewShareExponents solves LP (18), the skew-oblivious share optimization
// of Section 4.1: the worst-case load of the HyperCube algorithm over all
// data distributions is governed by M_j / min_{i ∈ Sj} p_i, so the LP is
//
//	min λ  s.t.  Σ_i e_i ≤ 1,  ∀j: h_j + λ ≥ µ_j,
//	             ∀j ∀i ∈ Sj: e_i − h_j ≥ 0,   e, h, λ ≥ 0.
func SkewShareExponents(q *query.Query, M []float64, p float64) Shares {
	if len(M) != q.NumAtoms() {
		panic(fmt.Sprintf("packing: %d statistics for %d atoms", len(M), q.NumAtoms()))
	}
	if p <= 1 {
		return trivialShares(q, M, p)
	}
	k := q.NumVars()
	l := q.NumAtoms()
	n := k + l + 1 // e_1..e_k, h_1..h_ℓ, λ
	obj := make([]float64, n)
	obj[k+l] = 1
	prob := &lp.Problem{NumVars: n, Objective: obj}
	row := make([]float64, n)
	for i := 0; i < k; i++ {
		row[i] = 1
	}
	prob.Constraints = append(prob.Constraints, lp.Constraint{Coeffs: row, Op: lp.LE, RHS: 1})
	for j, a := range q.Atoms {
		mu := math.Log(M[j]) / math.Log(p)
		r := make([]float64, n)
		r[k+j] = 1
		r[k+l] = 1
		prob.Constraints = append(prob.Constraints, lp.Constraint{Coeffs: r, Op: lp.GE, RHS: mu})
		for _, v := range a.DistinctVars() {
			r2 := make([]float64, n)
			r2[q.VarIndex(v)] = 1
			r2[k+j] = -1
			prob.Constraints = append(prob.Constraints, lp.Constraint{Coeffs: r2, Op: lp.GE, RHS: 0})
		}
	}
	s := lp.Solve(prob)
	if s.Status != lp.Optimal {
		panic(fmt.Sprintf("packing: skew share LP %v for %s", s.Status, q))
	}
	return Shares{Query: q, Exponents: s.X[:k], Lambda: s.X[k+l], P: p}
}

// Load evaluates the paper's formula (11),
//
//	L(u, M, p) = (Π_j M_j^{u_j} / p)^{1 / Σ_j u_j},
//
// the one-round load lower bound induced by the fractional edge packing u.
// By the paper's convention the all-zero packing yields 0.
func Load(u, M []float64, p float64) float64 {
	su := sum(u)
	if su <= 0 {
		return 0
	}
	logNum := 0.0
	for j, w := range u {
		if w > 0 {
			logNum += w * math.Log(M[j])
		}
	}
	return math.Exp((logNum - math.Log(p)) / su)
}

// LLower returns L_lower = max_u L(u, M, p) over the extreme points of the
// packing polytope, along with the maximizing packing (Section 3.2 and
// Theorem 3.15).
func LLower(q *query.Query, M []float64, p float64) (float64, []float64) {
	best := 0.0
	var bestU []float64
	for _, u := range Vertices(q) {
		if l := Load(u, M, p); l > best {
			best = l
			bestU = u
		}
	}
	if bestU == nil {
		bestU = make([]float64, q.NumAtoms())
	}
	return best, bestU
}

// SpeedupExponent returns 1/Σ_j u*_j for the load-maximizing packing u*:
// the HyperCube load decreases as p^{-1/Σ u*_j} (Section 3.4). For equal
// cardinalities this equals 1/τ*.
func SpeedupExponent(q *query.Query, M []float64, p float64) float64 {
	_, u := LLower(q, M, p)
	su := sum(u)
	if su == 0 {
		return 1 // degenerate: broadcast everything, linear speedup
	}
	return 1 / su
}
