package data

import (
	"math"
	"math/rand"
	"sort"
)

// SortedKeys returns m's keys in ascending order. Go randomizes map
// iteration, so a loop whose effects are order-sensitive — emitting
// tuples, appending to a relation, anything fingerprint-visible — must
// iterate this slice instead of the map; the mpclint maporder analyzer
// enforces exactly that, and SPMD ranks diverge when it is violated.
func SortedKeys[V any](m map[int64]V) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// ColumnFrequencies returns the frequency of every value in the given column
// (m_j(h) of Section 4.2, as counts).
func ColumnFrequencies(r *Relation, col int) map[int64]int {
	m := r.NumTuples()
	freq := make(map[int64]int, m) // sized once: growing from empty rehashes log m times
	for i := 0; i < m; i++ {
		freq[r.At(i, col)]++
	}
	return freq
}

// HeavyHitters returns the values whose frequency is at least threshold,
// with their exact frequencies. The paper's threshold is m_j/p (Section 4.2),
// which guarantees at most p heavy hitters per relation.
func HeavyHitters(freq map[int64]int, threshold int) map[int64]int {
	out := make(map[int64]int)
	for v, c := range freq {
		if c >= threshold {
			out[v] = c
		}
	}
	return out
}

// MaxDegree returns the largest frequency in the column.
func MaxDegree(r *Relation, col int) int {
	best := 0
	for _, c := range ColumnFrequencies(r, col) {
		if c > best {
			best = c
		}
	}
	return best
}

// SampledFrequencies estimates per-value frequencies from a uniform sample
// of sampleSize tuples, scaled back to the full relation. The paper notes
// (Section 1) that heavy-hitter statistics "can be easily obtained in
// advance from small samples of the input"; this implements that estimator.
func SampledFrequencies(rng *rand.Rand, r *Relation, col, sampleSize int) map[int64]float64 {
	m := r.NumTuples()
	if sampleSize >= m {
		out := make(map[int64]float64)
		for v, c := range ColumnFrequencies(r, col) {
			out[v] = float64(c)
		}
		return out
	}
	counts := make(map[int64]int)
	for s := 0; s < sampleSize; s++ {
		counts[r.At(rng.Intn(m), col)]++
	}
	scale := float64(m) / float64(sampleSize)
	out := make(map[int64]float64, len(counts))
	for v, c := range counts {
		out[v] = float64(c) * scale
	}
	return out
}

// FrequenciesBits converts count frequencies to the paper's bit measure
// M_j(h) = a_j · m_j(h) · ⌈log₂ n⌉.
func FrequenciesBits(freq map[int64]int, arity int, n int64) map[int64]float64 {
	out := make(map[int64]float64, len(freq))
	b := float64(arity * BitsPerValue(n))
	for v, c := range freq {
		out[v] = float64(c) * b
	}
	return out
}

// TopK returns the k most frequent values in descending frequency order
// (ties broken by value for determinism).
func TopK(freq map[int64]int, k int) []int64 {
	type vc struct {
		v int64
		c int
	}
	all := make([]vc, 0, len(freq))
	for v, c := range freq {
		all = append(all, vc{v, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].v < all[j].v
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]int64, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].v
	}
	return out
}

// PairDegrees returns, for a binary relation, the frequency of each (full
// tuple) pair — the degree d_J(R) for |U| = 2 used in the promise of
// Lemma 3.2 / Corollary 3.3.
func PairDegrees(r *Relation) map[[2]int64]int {
	if r.Arity != 2 {
		panic("data: PairDegrees requires a binary relation")
	}
	out := make(map[[2]int64]int)
	m := r.NumTuples()
	for i := 0; i < m; i++ {
		out[[2]int64{r.At(i, 0), r.At(i, 1)}]++
	}
	return out
}

// DegreePromise checks the Corollary 3.3 condition for a binary relation R
// and per-column shares p0, p1: for every single column U={c}, every value
// must have degree ≤ β·m/p_c, and every full pair degree ≤ β²·m/(p0·p1).
// It returns the smallest β for which the promise holds.
func DegreePromise(r *Relation, p0, p1 int) float64 {
	m := float64(r.NumTuples())
	beta := 0.0
	for col, pc := range []int{p0, p1} {
		for _, c := range ColumnFrequencies(r, col) {
			if b := float64(c) * float64(pc) / m; b > beta {
				beta = b
			}
		}
	}
	for _, c := range PairDegrees(r) {
		need := float64(c) * float64(p0*p1) / m
		if b := math.Sqrt(need); b > beta {
			beta = b
		}
	}
	return beta
}
