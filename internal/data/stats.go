package data

import "slices"

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
// frequency map slower still and unordered. Below smallSort values, the
// measured crossover on two-digit columns (wider ones break even near
// 2 048), the radix's counter clears and copy cost more than comparisons,
// and slices.Sort sorts vals in place.
func SortValues(vals []int64) []int64 {
	if len(vals) < smallSort {
		slices.Sort(vals)
		return vals
	}
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

const smallSort = 1024 // SortValues' cutoff

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
