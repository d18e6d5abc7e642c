package data

import (
	"cmp"
	"math/bits"
	"slices"
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

// Run is one distinct value of a column with its number of occurrences
// (m_j(h) of Section 4.2, as a count).
type Run struct {
	Value int64
	Count int
}

// Heavy returns the values of the strided column vals[col], vals[col+stride],
// … (stride ≥ 1) that occur at least cut times (a cut below 1 counts as 1),
// with their exact counts, ascending by value. With the paper's heavy-hitter cut m_j/p (Section 4.2)
// that is at most p values, however many distinct values the column has.
// This is the one way the repository finds the heavy values of a column. It
// sorts only its result, after two passes:
//   - a screen counts the column into 2^b ≥ max(1024, 8·⌈n/cut⌉) hash
//     buckets. A bucket's count bounds the count of every value in it, so the
//     screen returns nothing as soon as the largest bucket plus the values
//     still unread falls below the cut: at cut n (share 1) it stops as soon
//     as two values fall in different buckets;
//   - a map counts exactly the values whose bucket reached the cut, at most
//     n/cut buckets of them.
func Heavy(vals []int64, stride, col, cut int) []Run {
	n, cut := 0, max(cut, 1)
	if col < len(vals) {
		n = (len(vals) - col + stride - 1) / stride
	}
	if n < cut {
		return nil
	}
	b := max(10, bits.Len(uint(8*((n+cut-1)/cut)-1)))
	buckets := make([]int32, 1<<b)
	top, left := 0, n
	for i := col; i < len(vals); i += stride {
		h := bucket(vals[i], b)
		buckets[h]++
		top = max(top, int(buckets[h]))
		if left--; top+left < cut {
			return nil
		}
	}
	counts := map[int64]int{}
	for i := col; i < len(vals); i += stride {
		if v := vals[i]; int(buckets[bucket(v, b)]) >= cut {
			counts[v]++
		}
	}
	var runs []Run
	for v, c := range counts {
		if c >= cut {
			runs = append(runs, Run{v, c})
		}
	}
	slices.SortFunc(runs, func(x, y Run) int { return cmp.Compare(x.Value, y.Value) })
	return runs
}

// bucket hashes v into one of 2^b buckets: the top b bits of a Fibonacci
// multiplicative hash.
func bucket(v int64, b int) uint64 { return uint64(v) * 0x9e3779b97f4a7c15 >> (64 - b) }

// Counts returns how often each of the given values occurs in the strided
// column vals[col], vals[col+stride], …, leaving out those that do not: the
// exact count of a value known to matter (heavy in another column) where it
// may be light.
func Counts(vals []int64, stride, col int, of []int64) map[int64]int {
	counts := make(map[int64]int, len(of))
	for _, v := range of {
		counts[v] = 0
	}
	for i := col; i < len(vals); i += stride {
		if c, ok := counts[vals[i]]; ok {
			counts[vals[i]] = c + 1
		}
	}
	for v, c := range counts {
		if c == 0 {
			delete(counts, v)
		}
	}
	return counts
}

// ColumnFrequencies returns the frequency of every value in the given column
// as a map, for callers that look values up at random.
func ColumnFrequencies(r *Relation, col int) map[int64]int {
	freq := map[int64]int{}
	for i := col; i < len(r.vals); i += r.Arity {
		freq[r.vals[i]]++
	}
	return freq
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
