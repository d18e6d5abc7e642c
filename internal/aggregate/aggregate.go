// Package aggregate implements semiring-annotated aggregation for
// conjunctive-query workloads: COUNT/SUM/MIN/MAX over the output of a join,
// optionally grouped by a subset of the query's variables.
//
// The paper's cost model charges bits on the wire, and aggregation is the
// classic workload where combining tuples *before* the shuffle provably
// shrinks communication: two same-group partial aggregates fold into one
// tuple under the aggregate's commutative monoid, so a sender that combines
// locally ships one tuple per distinct group instead of one per join-output
// row. The package provides the small Semiring interface the rest of the
// tree programs against, the per-tuple annotation initialization, and the
// FoldTable — an open-addressed group-by hash table mirroring the local-join
// kernel's columnar atomIndex design (flat int64 row storage, slot heads
// with intra-slot chains, collisions resolved by in-place key compare).
//
// A partial aggregate has one form, from the fold to the final output: a
// plain relation of (key..., value) rows of arity KeyArity()+1. The table
// stores its rows that way, Result and ProjectRaw return them, the
// aggregate shuffle ships them as they are, and AddRows folds them back in.
package aggregate

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"mpcquery/internal/data"
	"mpcquery/internal/hashing"
)

// Op identifies one of the supported aggregation operators.
type Op int

// The supported aggregate operators. Count annotates every join-output row
// with 1; Sum/Min/Max annotate it with the value of the aggregated variable.
const (
	Count Op = iota
	Sum
	Min
	Max
)

func (op Op) String() string {
	switch op {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// Valid reports whether op is one of the defined operators.
func (op Op) Valid() bool { return op >= Count && op <= Max }

// Semiring is the combining structure of one aggregate: a commutative
// monoid over int64 annotations. Combine must be associative and
// commutative (int64 addition with wraparound, min, and max all are), so
// partial aggregation may fold tuples in any grouping and any order —
// pushdown and no-pushdown runs produce bit-identical final values.
type Semiring interface {
	// Combine folds two annotations.
	Combine(a, b int64) int64
	// Repeat is the n-fold ⊕, a ⊕ a ⊕ … ⊕ a of n ≥ 1 copies of a: what n
	// join rows with one group key and one annotation fold to, without
	// enumerating them. It is a·n with int64 wraparound for count/sum
	// (equal to n wrapping additions) and a for min/max.
	Repeat(a, n int64) int64
}

type sumSemiring struct{}

func (sumSemiring) Combine(a, b int64) int64 { return a + b }
func (sumSemiring) Repeat(a, n int64) int64  { return a * n }

type minSemiring struct{}

func (minSemiring) Repeat(a, _ int64) int64 { return a }
func (minSemiring) Combine(a, b int64) int64 {
	if b < a {
		return b
	}
	return a
}

type maxSemiring struct{}

func (maxSemiring) Repeat(a, _ int64) int64 { return a }
func (maxSemiring) Combine(a, b int64) int64 {
	if b > a {
		return b
	}
	return a
}

// ForOp returns the semiring of one operator.
func ForOp(op Op) Semiring {
	switch op {
	case Count, Sum:
		return sumSemiring{}
	case Min:
		return minSemiring{}
	case Max:
		return maxSemiring{}
	default:
		panic(fmt.Sprintf("aggregate: unknown op %d", int(op)))
	}
}

// Plan is a resolved aggregate specification handed down to the executors:
// the operator, the aggregated variable (empty for Count), the group-by
// variables, and whether senders pre-aggregate before the shuffle.
type Plan struct {
	Op       Op
	Var      string   // aggregated variable; "" for Count
	GroupBy  []string // group-by variables (possibly empty: global aggregate)
	Semiring Semiring
	Pushdown bool
}

// NewPlan builds a Plan for op over variable of (ignored for Count).
func NewPlan(op Op, of string, groupBy []string, pushdown bool) *Plan {
	return &Plan{Op: op, Var: of, GroupBy: append([]string(nil), groupBy...),
		Semiring: ForOp(op), Pushdown: pushdown}
}

// KeyArity returns the wire arity of a group key. A global aggregate (no
// group-by variables) uses one synthetic all-zero key column, so partial
// aggregates always have at least one key column ahead of the value.
func (p *Plan) KeyArity() int {
	if len(p.GroupBy) == 0 {
		return 1
	}
	return len(p.GroupBy)
}

// Describe renders the plan for Report display: "count() by z",
// "sum(x1) global", ...
func (p *Plan) Describe() string {
	by := "global"
	if len(p.GroupBy) > 0 {
		by = "by " + strings.Join(p.GroupBy, ",")
	}
	return fmt.Sprintf("%s(%s) %s", p.Op, p.Var, by)
}

// InitAnnotation returns the annotation one join-output row contributes:
// 1 for Count, the aggregated variable's value otherwise.
func (p *Plan) InitAnnotation(aggVal int64) int64 {
	if p.Op == Count {
		return 1
	}
	return aggVal
}

// DestOf routes one group key to a server in [0, p): the same multiply-shift
// reduction the HyperCube grid uses, over a Combine-chained key hash. Every
// sender must agree on it, pushdown or not.
func DestOf(key []int64, p int) int {
	if p <= 1 {
		return 0
	}
	h := hashing.CombineSlice(0xa6c5_1c7e_93d3_0f6b, key)
	return int((h >> 32) * uint64(p) >> 32)
}

// FoldTable is the group-by hash table: flat row-major (key..., value) rows
// — the aggregate shuffle's wire format — and an open-addressed slot table
// with intra-slot chains (the PR 4 atomIndex layout, adapted from
// probe-only to insert-or-combine). Rows keep first-insertion order, so a
// single-threaded fold is deterministic. A FoldTable is not safe for
// concurrent use.
type FoldTable struct {
	keyArity int
	sr       Semiring

	rows []int64 // flat row-major (key..., value) rows
	head []int32 // slot -> first chained row index + 1 (0 = empty)
	next []int32 // row index -> next chained row + 1
	mask uint64
}

// NewFoldTable returns an empty fold table for keys of the given arity.
func NewFoldTable(keyArity int, sr Semiring) *FoldTable {
	t := new(FoldTable)
	t.Reset(keyArity, sr)
	return t
}

// Reset empties the table in place for a new fold of keys of the given arity
// under sr, keeping capacity.
func (t *FoldTable) Reset(keyArity int, sr Semiring) {
	t.keyArity, t.sr = keyArity, sr
	t.rows = t.rows[:0]
	if cap(t.head) < 16 {
		t.head = make([]int32, 16)
	} else {
		t.head = t.head[:16]
		for i := range t.head {
			t.head[i] = 0
		}
	}
	t.next = t.next[:0]
	t.mask = uint64(len(t.head) - 1)
}

// Len returns the number of distinct groups folded so far.
func (t *FoldTable) Len() int { return len(t.next) }

func hashGroupKey(key []int64) uint64 {
	return hashing.CombineSlice(0x51a0_f3c2_b44e_9d17, key)
}

// Add folds one (key, value) pair into the table.
func (t *FoldTable) Add(key []int64, v int64) {
	ka := t.keyArity
	slot := hashGroupKey(key) & t.mask
	for e := t.head[slot]; e != 0; e = t.next[e-1] {
		row := t.rows[int(e-1)*(ka+1):]
		match := true
		for c, kv := range key {
			if row[c] != kv {
				match = false
				break
			}
		}
		if match {
			row[ka] = t.sr.Combine(row[ka], v)
			return
		}
	}
	t.rows = append(append(t.rows, key...), v)
	t.next = append(t.next, t.head[slot])
	t.head[slot] = int32(len(t.next))
	if uint64(len(t.next))*2 > uint64(len(t.head)) {
		t.grow()
	}
}

// AddRows folds a flat block of (key..., value) rows of arity keyArity+1 —
// the wire format of the aggregate shuffle.
func (t *FoldTable) AddRows(vals []int64) {
	w := t.keyArity + 1
	for off := 0; off+w <= len(vals); off += w {
		t.Add(vals[off:off+t.keyArity], vals[off+t.keyArity])
	}
}

// grow doubles the slot table and rechains every row.
func (t *FoldTable) grow() {
	size := 1 << bits.Len(uint(2*len(t.next)))
	if size <= len(t.head) {
		size = len(t.head) * 2
	}
	if cap(t.head) < size {
		t.head = make([]int32, size)
	} else {
		t.head = t.head[:size]
		for i := range t.head {
			t.head[i] = 0
		}
	}
	t.mask = uint64(size - 1)
	w := t.keyArity + 1
	for i := range t.next {
		slot := hashGroupKey(t.rows[i*w:i*w+t.keyArity]) & t.mask
		t.next[i] = t.head[slot]
		t.head[slot] = int32(i + 1)
	}
}

// Result materializes the fold as a fresh relation of (key..., value) rows
// (arity keyArity+1), in first-insertion order: the rows a sender ships and
// AddRows folds. The relation owns its storage: the table may be reset
// afterwards.
func (t *FoldTable) Result(name string) *data.Relation {
	return data.FromVals(name, t.keyArity+1, slices.Clone(t.rows))
}

// ProjectRaw projects a full join output to unfolded (key..., value) rows,
// one per output tuple — the no-pushdown wire payload. groupCols are the
// output columns forming the group key (empty for a global aggregate, which
// gets one synthetic zero key column); aggCol is the aggregated column (-1
// for Count).
func ProjectRaw(out *data.Relation, groupCols []int, aggCol int, p *Plan) *data.Relation {
	w := p.KeyArity() + 1
	m := out.NumTuples()
	vals := make([]int64, m*w) // zeroed: a global aggregate's key column stays 0
	for i := 0; i < m; i++ {
		t, row := out.Tuple(i), vals[i*w:(i+1)*w]
		for c, gc := range groupCols {
			row[c] = t[gc]
		}
		av := int64(0)
		if aggCol >= 0 {
			av = t[aggCol]
		}
		row[w-1] = p.InitAnnotation(av)
	}
	return data.FromVals(out.Name, w, vals)
}

// Finalize assembles the canonical aggregate output from per-destination
// folded (key..., value) partials: the synthetic key column of a global
// aggregate is dropped and the rows are sorted
// lexicographically. Group keys are disjoint across destinations (the
// shuffle partitions by key), so the sort makes the output independent of
// server count, strategy, and pushdown setting. It is Canonical over the
// Rows of every part.
func Finalize(name string, parts []*data.Relation, p *Plan) *data.Relation {
	out := data.NewRelation(name, p.OutArity())
	for _, part := range parts {
		if part != nil {
			out.AppendVals(Rows(part, p).Vals())
		}
	}
	return Canonical(out)
}

// OutArity returns the arity of the canonical output rows: the group key and
// the value, or the value alone for a global aggregate.
func (p *Plan) OutArity() int {
	if len(p.GroupBy) == 0 {
		return 1
	}
	return p.KeyArity() + 1
}

// Rows turns one destination's folded (key..., value) rows into output
// rows, in the same order: the rows themselves for a group-by, the value
// column alone for a global aggregate, whose synthetic key it drops.
func Rows(part *data.Relation, p *Plan) *data.Relation {
	if len(p.GroupBy) > 0 {
		return part
	}
	vals := make([]int64, part.NumTuples())
	for i := range vals {
		vals[i] = part.At(i, 1)
	}
	return data.FromVals(part.Name, 1, vals)
}

// Canonical returns output rows sorted lexicographically: the canonical
// aggregate output once every destination's Rows are in.
func Canonical(out *data.Relation) *data.Relation { return out.Sorted() }
