package data

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// mapRuns is the reference Heavy is checked against: a frequency map over
// every value, thresholded, keys sorted.
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

// checkColumnRuns compares every column of r with the map reference: Heavy
// at the cuts 1, 2, m and m+1, the map façade, and Counts of every value
// and of one value the column does not hold.
func checkColumnRuns(t *testing.T, r *Relation) {
	t.Helper()
	m := r.NumTuples()
	for col := 0; col < r.Arity; col++ {
		for _, cut := range []int{1, 2, m, m + 1} {
			got, want := Heavy(r.Vals(), r.Arity, col, cut), mapRuns(r, col, cut)
			if !slices.Equal(got, want) {
				t.Fatalf("column %d cut %d of %d tuples: Heavy %v, map reference %v", col, cut, m, got, want)
			}
		}
		all := mapRuns(r, col, 1)
		freq := ColumnFrequencies(r, col)
		if len(freq) != len(all) {
			t.Fatalf("column %d: ColumnFrequencies holds %d values, want %d", col, len(freq), len(all))
		}
		absent := int64(0)
		for freq[absent] > 0 {
			absent++
		}
		of := []int64{absent}
		for _, run := range all {
			of = append(of, run.Value)
		}
		counts := Counts(r.Vals(), r.Arity, col, of)
		for _, run := range all {
			if freq[run.Value] != run.Count || counts[run.Value] != run.Count {
				t.Fatalf("column %d value %d: map %d, Counts %d, want %d",
					col, run.Value, freq[run.Value], counts[run.Value], run.Count)
			}
		}
		if len(counts) != len(all) {
			t.Fatalf("column %d: Counts holds %d values, want the %d that occur", col, len(counts), len(all))
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
	// k·φ⁻¹ for k < 2⁴⁸ lands in bucket 0 of the screen's Fibonacci hash
	// (multiplying by φ gives back k), at every size up to 2¹⁶ buckets: the
	// one-bucket case fills a single bucket, so the exact count decides.
	inv := uint64(0x9e3779b97f4a7c15)
	for range 5 {
		inv *= 2 - 0x9e3779b97f4a7c15*inv
	}
	if bucket(int64(12345*inv), 16) != 0 || bucket(int64(12346*inv), 10) != 0 {
		t.Fatal("the one-bucket values spread over several buckets")
	}
	// 40 and 5000 tuples: Heavy's screen has 1 024 buckets at every cut of
	// 40 tuples, and up to 64 Ki at cut 1 of 5000.
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
				"one-bucket": func(i, c int) int64 { return int64(uint64(i/3+c+1) * inv) },
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

// FuzzHeavy decodes a column layout and a cut from the input — 8-byte
// values while they last, so every bit of an int64 is reachable, then
// signed bytes — repeats the values so that counts above one exist, lays
// them out as a relation of arity stride, and holds Heavy on column col to
// the map reference at a cut in [1, n+1].
func FuzzHeavy(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0x80, 1, 0, 0, 0, 0, 0, 0, 0, 0x80}, uint8(2), uint8(1), uint8(0), uint8(1))
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0x80, 3}, uint8(1), uint8(40), uint8(2), uint8(1))
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, b []byte, cut, repeat, stride, col uint8) {
		var vals []int64
		for ; len(b) >= 8; b = b[8:] {
			vals = append(vals, int64(binary.LittleEndian.Uint64(b)))
		}
		for _, x := range b {
			vals = append(vals, int64(int8(x)))
		}
		arity := 1 + int(stride%4)
		r := NewRelation("fz", arity)
		for i := 0; i <= int(repeat); i++ {
			r.AppendVals(vals[:len(vals)/arity*arity])
		}
		c, n := int(col)%arity, r.NumTuples()
		k := 1 + int(cut)%(n+1)
		got, want := Heavy(r.Vals(), arity, c, k), mapRuns(r, c, k)
		if !slices.Equal(got, want) {
			t.Fatalf("column %d of arity %d, cut %d over %v: Heavy %v, map reference %v", c, arity, k, r.Vals(), got, want)
		}
	})
}

// plantedColumn is column 0 of m binary tuples over a domain of 16·m, with
// the given number of planted values of degree 2·m/64 each.
func plantedColumn(m, planted int) *Relation {
	rng := rand.New(rand.NewSource(1))
	r := NewRelation("R", 2)
	r.Grow(m)
	for i := 0; i < m; i++ {
		if h := i / (2 * m / 64); h < planted {
			r.Append(int64(h), rng.Int63n(int64(16*m)))
		} else {
			r.Append(rng.Int63n(int64(16*m)), rng.Int63n(int64(16*m)))
		}
	}
	return r
}

var runsSink []Run

// BenchmarkHeavy times Heavy at the cut m/64, the heavy-hitter cut of a
// variable with share 64, with four values of twice the cut and with none.
func BenchmarkHeavy(b *testing.B) {
	for _, m := range []int{100_000, 1_000_000} {
		for _, planted := range []int{4, 0} {
			r := plantedColumn(m, planted)
			b.Run(fmt.Sprintf("m=%d/hitters=%d", m, planted), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					runsSink = Heavy(r.Vals(), 2, 0, m/64)
				}
			})
		}
	}
}
