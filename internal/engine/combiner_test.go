package engine

import (
	"math/rand"
	"testing"
)

// TestCombinerMergesSameKeyRows drives duplicate-keyed rows through the
// combiner on a 2-server cluster and checks that the destination receives
// one row per (dest, key) with the combined annotation, and that the round's
// bit accounting reflects only the shipped rows.
func TestCombinerMergesSameKeyRows(t *testing.T) {
	c := NewCluster(2, 8)
	defer c.Release()
	var raw, sent int
	st := c.Round("combine", func(s int, _ *Inbox, emit *Emitter) {
		if s != 0 {
			return
		}
		cb := emit.Combiner(3, 1, func(a, b int64) int64 { return a + b })
		cb.Add(1, []int64{10, 1})
		cb.Add(1, []int64{20, 5})
		cb.Add(1, []int64{10, 2}) // merges into the first row
		cb.Add(0, []int64{10, 7}) // different destination: no merge
		raw, sent = cb.Flush()
	})
	if raw != 4 || sent != 3 {
		t.Fatalf("raw=%d sent=%d, want 4 and 3", raw, sent)
	}
	// 3 rows of 2 values at 8 bits each.
	if st.TotalRecvBits != 3*2*8 {
		t.Fatalf("TotalRecvBits = %f, want %d", st.TotalRecvBits, 3*2*8)
	}
	ib := c.Inbox(1)
	if ib.NumTuples() != 2 {
		t.Fatalf("dest 1 received %d rows, want 2", ib.NumTuples())
	}
	kind, row := ib.Tuple(0)
	if kind != 3 || row[0] != 10 || row[1] != 3 {
		t.Fatalf("first row = kind %d %v, want kind 3 [10 3]", kind, row)
	}
	_, row = ib.Tuple(1)
	if row[0] != 20 || row[1] != 5 {
		t.Fatalf("second row = %v, want [20 5]", row)
	}
	if c.Inbox(0).NumTuples() != 1 {
		t.Fatal("dest 0 must receive the one row routed to it")
	}
}

// TestCombinerEquivalentToPostFold checks the core contract: combining
// before the shuffle and folding after it yield the same per-destination
// totals as shipping every raw row — fewer bits, same values.
func TestCombinerEquivalentToPostFold(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const p = 4
	type row struct {
		dest int
		key  int64
		val  int64
	}
	rows := make([]row, 600)
	for i := range rows {
		rows[i] = row{dest: rng.Intn(p), key: rng.Int63n(9), val: rng.Int63n(50)}
	}

	fold := func(combined bool) (map[int]map[int64]int64, float64) {
		c := NewCluster(p, 10)
		defer c.Release()
		c.Round("agg", func(s int, _ *Inbox, emit *Emitter) {
			if s != 0 {
				return
			}
			if combined {
				cb := emit.Combiner(0, 1, func(a, b int64) int64 { return a + b })
				for _, r := range rows {
					cb.Add(r.dest, []int64{r.key, r.val})
				}
				cb.Flush()
			} else {
				for _, r := range rows {
					emit.EmitTuple(r.dest, 0, []int64{r.key, r.val})
				}
			}
		})
		got := make(map[int]map[int64]int64)
		for d := 0; d < p; d++ {
			got[d] = make(map[int64]int64)
			c.Inbox(d).Each(func(_ int, t []int64) {
				got[d][t[0]] += t[1]
			})
		}
		return got, c.Record(nil, 0).TotalBits()
	}

	combinedTotals, combinedBits := fold(true)
	rawTotals, rawBits := fold(false)
	for d := 0; d < p; d++ {
		for k, v := range rawTotals[d] {
			if combinedTotals[d][k] != v {
				t.Fatalf("dest %d key %d: combined %d, raw %d", d, k, combinedTotals[d][k], v)
			}
		}
		if len(rawTotals[d]) != len(combinedTotals[d]) {
			t.Fatalf("dest %d: group count diverged", d)
		}
	}
	if combinedBits >= rawBits {
		t.Fatalf("combining saved nothing: %f >= %f", combinedBits, rawBits)
	}
}

func TestCombinerPanics(t *testing.T) {
	c := NewCluster(1, 8)
	defer c.Release()
	mustPanic := func(name string, f func(emit *Emitter)) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		// Drive through a round so the emitter is live; re-panic on the
		// caller's goroutine per ParallelFor's contract.
		c.Round("t", func(_ int, _ *Inbox, emit *Emitter) { f(emit) })
	}
	mustPanic("bad row width", func(emit *Emitter) {
		cb := emit.Combiner(0, 2, func(a, b int64) int64 { return a + b })
		cb.Add(0, []int64{1, 2})
	})
	mustPanic("zero key arity", func(emit *Emitter) {
		emit.Combiner(0, 0, func(a, b int64) int64 { return a + b })
	})
	mustPanic("nil combine", func(emit *Emitter) {
		emit.Combiner(0, 1, nil)
	})
	mustPanic("use after flush", func(emit *Emitter) {
		cb := emit.Combiner(0, 1, func(a, b int64) int64 { return a + b })
		cb.Flush()
		cb.Add(0, []int64{1, 2})
	})
}
