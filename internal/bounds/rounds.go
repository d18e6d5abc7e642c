package bounds

import (
	"mpcquery/internal/packing"
	"mpcquery/internal/query"
)

// KEpsilon returns kε = 2⌊1/(1−ε)⌋, the longest chain computable in one
// round with space exponent ε (Section 5.1): τ*(L_k) ≤ 1/(1−ε) iff k ≤ kε.
func KEpsilon(eps float64) int {
	return 2 * int(1/(1-eps)+1e-9)
}

// MEpsilon returns mε = ⌊2/(1−ε)⌋, the longest cycle computable in one
// round with space exponent ε (Lemma 5.7): τ*(C_k) = k/2 ≤ 1/(1−ε) iff
// k ≤ mε.
func MEpsilon(eps float64) int {
	return int(2/(1-eps) + 1e-9)
}

// InGammaOne reports whether q ∈ Γ¹ε, i.e. τ*(q) ≤ 1/(1−ε): q is computable
// in one round with load O(M/p^{1−ε}) on matching databases.
func InGammaOne(q *query.Query, eps float64) bool {
	tau, _ := packing.TauStar(q)
	return tau <= 1/(1-eps)+1e-9
}

// CeilLog returns ⌈log_base(x)⌉ for integers base ≥ 2, x ≥ 1, computed in
// exact integer arithmetic (the smallest r ≥ 0 with base^r ≥ x).
func CeilLog(base, x int) int {
	if base < 2 || x < 1 {
		panic("bounds: CeilLog requires base >= 2 and x >= 1")
	}
	r, pow := 0, 1
	for pow < x {
		pow *= base
		r++
	}
	return r
}

// FloorLogRatio returns ⌊log_base(num/den)⌋ for num ≥ den ≥ 1 (the largest
// r ≥ 0 with base^r ≤ num/den), in exact integer arithmetic.
func FloorLogRatio(base, num, den int) int {
	if base < 2 || den < 1 || num < den {
		panic("bounds: FloorLogRatio requires base >= 2 and num >= den >= 1")
	}
	r := 0
	pow := den
	for pow*base <= num {
		pow *= base
		r++
	}
	return r
}

// ChainRounds returns the depth ⌈log_kε k⌉ of the optimal multi-round plan
// for L_k with load O(M/p^{1−ε}) (Section 5.1; tight by Corollary 5.15).
func ChainRounds(k int, eps float64) int {
	ke := KEpsilon(eps)
	if ke < 2 {
		panic("bounds: ChainRounds needs kε >= 2 (eps >= 0)")
	}
	return CeilLog(ke, k)
}

// TreeLikeRoundsLB returns the Corollary 5.17 lower bound
// ⌈log_kε diam(q)⌉ for a tree-like query q.
func TreeLikeRoundsLB(q *query.Query, eps float64) int {
	if !q.IsTreeLike() {
		panic("bounds: TreeLikeRoundsLB requires a tree-like query")
	}
	return CeilLog(KEpsilon(eps), q.Diameter())
}

// RoundsUB returns the Lemma 5.4 upper bound r(q) on the rounds needed to
// compute a connected query q with load O(M/p^{1−ε}):
//
//	r(q) = ⌈log_kε rad(q)⌉ + 1   if q is tree-like,
//	       ⌊log_kε rad(q)⌋ + 2   otherwise.
func RoundsUB(q *query.Query, eps float64) int {
	ke := KEpsilon(eps)
	rad := q.Radius()
	if rad == 0 {
		return 1
	}
	if q.IsTreeLike() {
		return CeilLog(ke, rad) + 1
	}
	return FloorLogRatio(ke, rad, 1) + 2
}

// CycleRoundsLB returns the Lemma 5.18 lower bound
// ⌊log_kε(k/(mε+1))⌋ + 2 on the rounds needed for C_k with load
// O(M/p^{1−ε}), valid for k > mε.
func CycleRoundsLB(k int, eps float64) int {
	ke := KEpsilon(eps)
	me := MEpsilon(eps)
	if k <= me {
		return 1
	}
	return FloorLogRatio(ke, k, me+1) + 2
}
