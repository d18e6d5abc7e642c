package data

import (
	"math"
	"math/rand"
	"slices"
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
	slices.Sort(keys)
	return keys
}

// Run is one distinct value of a sorted column with its number of
// occurrences (m_j(h) of Section 4.2, as a count).
type Run struct {
	Value int64
	Count int
}

// SortValues sorts vals ascending and returns the sorted slice, which is vals
// or a scratch copy of it; vals is clobbered either way. It is an LSD radix
// sort on 11-bit digits (2048 counters stay in L1, six digits cover an
// int64): the sign bit is flipped so negative values order first, and a
// digit on which every value agrees costs no pass — a column over a domain
// of 2²² values is sorted in two. This is the one way the repository orders
// a column for counting: a comparison sort is 5× slower at m ≥ 10⁴, a
// frequency map slower still and unordered.
func SortValues(vals []int64) []int64 {
	const bits, mask = 11, 1<<11 - 1
	var diff uint64
	for _, v := range vals {
		diff |= uint64(v ^ vals[0])
	}
	src, dst := vals, make([]int64, len(vals))
	var count [mask + 1]int
	for shift := uint(0); shift < 64; shift += bits {
		if diff>>shift&mask == 0 {
			continue
		}
		clear(count[:])
		for _, v := range src {
			count[(uint64(v)^1<<63)>>shift&mask]++
		}
		at := 0
		for d, c := range count {
			count[d], at = at, at+c
		}
		for _, v := range src {
			d := (uint64(v) ^ 1<<63) >> shift & mask
			dst[count[d]] = v
			count[d]++
		}
		src, dst = dst, src
	}
	return src
}

// SortedColumn returns the given column of r in ascending order.
func SortedColumn(r *Relation, col int) []int64 {
	vals := make([]int64, r.NumTuples())
	for i := range vals {
		vals[i] = r.vals[i*r.Arity+col]
	}
	return SortValues(vals)
}

// Runs returns the runs of an ascending slice that are at least floor long,
// ascending by value. With the paper's heavy-hitter floor m_j/p (Section
// 4.2) that is at most p runs, however many distinct values the column has.
func Runs(sorted []int64, floor int) []Run {
	var runs []Run
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		if j-i >= floor {
			runs = append(runs, Run{sorted[i], j - i})
		}
		i = j
	}
	return runs
}

// ColumnRuns counts one column: its distinct values of frequency ≥ floor
// with their exact frequencies, ascending by value.
func ColumnRuns(r *Relation, col, floor int) []Run {
	return Runs(SortedColumn(r, col), floor)
}

// CountOf returns how often v occurs in an ascending slice — the exact
// frequency of a value known to matter (heavy in another relation) without a
// table of all the values that do not.
func CountOf(sorted []int64, v int64) int {
	lo, _ := slices.BinarySearch(sorted, v)
	hi := lo
	for hi < len(sorted) && sorted[hi] == v {
		hi++
	}
	return hi - lo
}

// ColumnFrequencies returns the frequency of every value in the given column
// as a map, for callers that look values up at random.
func ColumnFrequencies(r *Relation, col int) map[int64]int {
	runs := ColumnRuns(r, col, 1)
	freq := make(map[int64]int, len(runs))
	for _, run := range runs {
		freq[run.Value] = run.Count
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
	for _, run := range ColumnRuns(r, col, 1) {
		best = max(best, run.Count)
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
	sample := make([]int64, sampleSize)
	for s := range sample {
		sample[s] = r.At(rng.Intn(m), col)
	}
	scale := float64(m) / float64(sampleSize)
	out := make(map[int64]float64)
	for _, run := range Runs(SortValues(sample), 1) {
		out[run.Value] = float64(run.Count) * scale
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
		if b := float64(MaxDegree(r, col)) * float64(pc) / m; b > beta {
			beta = b
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
