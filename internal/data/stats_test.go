package data

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// mapRuns is the reference ColumnRuns is checked against, written the way
// the repository counted columns before the sort-and-count pass: a frequency
// map over every value, thresholded, keys sorted.
func mapRuns(r *Relation, col, floor int) []Run {
	freq := map[int64]int{}
	for i := 0; i < r.NumTuples(); i++ {
		freq[r.At(i, col)]++
	}
	var runs []Run
	for _, v := range SortedKeys(freq) {
		if freq[v] >= floor {
			runs = append(runs, Run{v, freq[v]})
		}
	}
	return runs
}

// checkColumnRuns compares every column of r with the map reference at the
// floors 1, 2, m and m+1, and the map façade with it.
func checkColumnRuns(t *testing.T, r *Relation) {
	t.Helper()
	m := r.NumTuples()
	for col := 0; col < r.Arity; col++ {
		for _, floor := range []int{1, 2, m, m + 1} {
			got, want := ColumnRuns(r, col, floor), mapRuns(r, col, floor)
			if !slices.Equal(got, want) {
				t.Fatalf("column %d floor %d of %d tuples: runs %v, map reference %v", col, floor, m, got, want)
			}
		}
		all := mapRuns(r, col, 1)
		freq := ColumnFrequencies(r, col)
		if len(freq) != len(all) {
			t.Fatalf("column %d: ColumnFrequencies holds %d values, want %d", col, len(freq), len(all))
		}
		sorted := SortedColumn(r, col)
		for _, run := range all {
			if freq[run.Value] != run.Count || CountOf(sorted, run.Value) != run.Count {
				t.Fatalf("column %d value %d: map %d, CountOf %d, want %d",
					col, run.Value, freq[run.Value], CountOf(sorted, run.Value), run.Count)
			}
		}
	}
}

func TestColumnRunsMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fill := func(arity, m int, value func(i, c int) int64) *Relation {
		r := NewRelation("R", arity)
		row := make([]int64, arity)
		for i := 0; i < m; i++ {
			for c := range row {
				row[c] = value(i, c)
			}
			r.AppendTuple(row)
		}
		return r
	}
	// 40 and 5000 tuples: below and above the size where SortValues leaves
	// the comparison sort for the radix passes.
	for _, m := range []int{0, 1, 40, 5000} {
		for arity := 1; arity <= 4; arity++ {
			cases := map[string]func(i, c int) int64{
				"all-equal":    func(i, c int) int64 { return int64(c) - 2 },
				"all-distinct": func(i, c int) int64 { return int64(i*7 + c) },
				"negative":     func(i, c int) int64 { return -rng.Int63n(50) - 1 },
				"mixed-signs":  func(i, c int) int64 { return rng.Int63n(64) - 32 },
				"wide":         func(i, c int) int64 { return int64(rng.Uint64()) >> uint(rng.Intn(64)) },
				"extremes": func(i, c int) int64 {
					return []int64{math.MinInt64, math.MaxInt64, 0, -1, 1}[rng.Intn(5)]
				},
				"planted": func(i, c int) int64 {
					if i%3 == 0 {
						return 7
					}
					return rng.Int63n(1 << 20)
				},
			}
			for name, value := range cases {
				t.Run(fmt.Sprintf("%s/m=%d/arity=%d", name, m, arity), func(t *testing.T) {
					checkColumnRuns(t, fill(arity, m, value))
				})
			}
		}
	}
}

// TestSortValuesAroundCutoff holds SortValues to slices.Sort on both sides
// of smallSort, where it switches from the comparison sort to the radix
// passes, over columns with negatives, duplicates and the int64 extremes.
func TestSortValuesAroundCutoff(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	gens := map[string]func() int64{
		"negatives":  func() int64 { return -rng.Int63n(1 << 20) },
		"mixed-dups": func() int64 { return rng.Int63n(16) - 8 },
		"wide":       func() int64 { return int64(rng.Uint64()) },
		"extremes": func() int64 {
			return []int64{math.MinInt64, math.MaxInt64, 0, -1, 1 << 40}[rng.Intn(5)]
		},
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, smallSort - 2, smallSort - 1, smallSort, smallSort + 1, 2 * smallSort} {
			vals := make([]int64, n)
			for i := range vals {
				vals[i] = gen()
			}
			want := slices.Clone(vals)
			slices.Sort(want)
			if got := SortValues(slices.Clone(vals)); !slices.Equal(got, want) {
				t.Fatalf("%s, %d values: SortValues differs from slices.Sort", name, n)
			}
		}
	}
}

// FuzzColumnRuns decodes a column and a floor from the input — 8-byte values
// while they last, so every bit of an int64 is reachable — repeats it so
// that runs longer than one exist, and holds the counting pass to the map
// reference.
func FuzzColumnRuns(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0, 0x80}, uint8(2), uint8(1))
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0x80, 3}, uint8(1), uint8(40))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, b []byte, floor, repeat uint8) {
		var col []int64
		for ; len(b) >= 8; b = b[8:] {
			col = append(col, int64(binary.LittleEndian.Uint64(b)))
		}
		for _, x := range b {
			col = append(col, int64(int8(x)))
		}
		r := NewRelation("fz", 1)
		for i := 0; i <= int(repeat); i++ {
			r.AppendVals(col)
		}
		got, want := ColumnRuns(r, 0, int(floor)), mapRuns(r, 0, int(floor))
		if !slices.Equal(got, want) {
			t.Fatalf("floor %d over %v: runs %v, map reference %v", floor, r.Vals(), got, want)
		}
	})
}

// plantedColumn is a unary relation of m values over a domain of 16·m, a
// quarter of them one planted hitter — the shape of the skew workloads.
func plantedColumn(m int) *Relation {
	rng := rand.New(rand.NewSource(1))
	r := NewRelation("R", 1)
	r.Grow(m)
	for i := 0; i < m; i++ {
		if i%4 == 0 {
			r.Append(7)
		} else {
			r.Append(rng.Int63n(int64(16 * m)))
		}
	}
	return r
}

var runsSink []Run

// BenchmarkColumnRuns times the counting pass at the heavy-hitter floor m/p
// of p = 64 servers, at sizes where its growth against a frequency map shows.
func BenchmarkColumnRuns(b *testing.B) {
	for _, m := range []int{10_000, 100_000, 1_000_000} {
		r := plantedColumn(m)
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				runsSink = ColumnRuns(r, 0, m/64)
			}
		})
	}
}
