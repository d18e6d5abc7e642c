// Package data provides the relational data substrate for the MPC
// experiments: flat-stored relations over an integer domain [n], the
// matching-database and skewed workload generators used by the paper's
// probability spaces (Sections 3.2, 4 and 5.3), and frequency/degree
// statistics including heavy-hitter detection.
package data

import (
	"fmt"
	"math/bits"
	"slices"
)

// Relation is a bag of fixed-arity tuples over int64 values, stored in a
// single flat slice (row-major) to keep per-tuple overhead at zero.
type Relation struct {
	Name  string
	Arity int
	vals  []int64
	view  bool // vals is borrowed storage (SetView), not the relation's own
}

// NewRelation returns an empty relation with the given name and arity.
func NewRelation(name string, arity int) *Relation {
	if arity < 1 {
		panic("data: relation arity must be >= 1")
	}
	return &Relation{Name: name, Arity: arity}
}

// FromTuples builds a relation from explicit tuples (copied).
func FromTuples(name string, arity int, tuples ...[]int64) *Relation {
	r := NewRelation(name, arity)
	for _, t := range tuples {
		r.AppendTuple(t)
	}
	return r
}

// FromVals builds a relation that owns vals — flat row-major tuples, a
// multiple of the arity — without copying them.
func FromVals(name string, arity int, vals []int64) *Relation {
	r := NewRelation(name, arity)
	if len(vals)%arity != 0 {
		panic(fmt.Sprintf("data: %d values given to %s (arity %d)", len(vals), name, arity))
	}
	r.vals = vals
	return r
}

// NumTuples returns the number of tuples (m_j in the paper).
func (r *Relation) NumTuples() int { return len(r.vals) / r.Arity }

// Append adds one tuple given as variadic values.
func (r *Relation) Append(t ...int64) { r.AppendTuple(t) }

// AppendTuple adds one tuple; its length must equal the arity.
func (r *Relation) AppendTuple(t []int64) {
	if len(t) != r.Arity {
		panic(fmt.Sprintf("data: tuple of length %d appended to %s (arity %d)", len(t), r.Name, r.Arity))
	}
	r.vals = append(r.vals, t...)
}

// AppendVals bulk-appends a flat row-major block of tuples; len(vals) must
// be a multiple of the arity. This is the columnar ingest path for engine
// batches: one copy, no per-tuple bookkeeping.
func (r *Relation) AppendVals(vals []int64) {
	if len(vals)%r.Arity != 0 {
		panic(fmt.Sprintf("data: block of %d values appended to %s (arity %d)", len(vals), r.Name, r.Arity))
	}
	r.vals = append(r.vals, vals...)
}

// AppendColumns bulk-appends rows tuples given column-wise — tuple i is
// (cols[0][i], …, cols[Arity-1][i]) — transposing them straight into the
// flat storage: the join kernel's output path, with one arity and length
// check per call instead of one per row.
func (r *Relation) AppendColumns(cols [][]int64, rows int) {
	if len(cols) != r.Arity {
		panic(fmt.Sprintf("data: %d columns appended to %s (arity %d)", len(cols), r.Name, r.Arity))
	}
	for c, col := range cols {
		if len(col) < rows {
			panic(fmt.Sprintf("data: column %d of %s holds %d values, %d rows appended", c, r.Name, len(col), rows))
		}
	}
	base, a := len(r.vals), r.Arity
	r.vals = slices.Grow(r.vals, rows*a)[:base+rows*a]
	// Column by column within a block of rows: sequential reads, and the
	// block's output lines stay cached until every column has written them.
	const block = 1024
	for lo := 0; lo < rows; lo += block {
		hi := min(lo+block, rows)
		for c, col := range cols {
			o := base + lo*a + c
			for _, v := range col[lo:hi] {
				r.vals[o] = v
				o += a
			}
		}
	}
}

// Vals returns the relation's flat row-major storage (tuple i occupies
// [i*Arity, (i+1)*Arity)). It is a live view for columnar kernels: the
// caller must not modify it, and it is invalidated by subsequent appends.
func (r *Relation) Vals() []int64 { return r.vals }

// Reset empties the relation in place, keeping the backing capacity — the
// reuse path for per-worker fragment buffers rebuilt every server. A view
// lets go of the storage it borrowed.
func (r *Relation) Reset() {
	if r.view {
		r.vals, r.view = nil, false
	}
	r.vals = r.vals[:0]
}

// SetView makes the relation a read-only view of vals — flat row-major
// tuples, a multiple of the arity — without copying them: the in-place read
// path for a fragment that already lies contiguous in an engine inbox. The
// caller keeps vals unchanged for as long as the view is in use. Appending to
// a view copies it first, never writing through; Reset detaches it.
func (r *Relation) SetView(vals []int64) {
	if len(vals)%r.Arity != 0 {
		panic(fmt.Sprintf("data: view of %d values set on %s (arity %d)", len(vals), r.Name, r.Arity))
	}
	r.vals, r.view = vals[:len(vals):len(vals)], true
}

// IsView reports whether the relation reads borrowed storage (SetView).
func (r *Relation) IsView() bool { return r.view }

// Tuple returns a view of tuple i; the caller must not grow it, and it is
// invalidated by subsequent appends.
func (r *Relation) Tuple(i int) []int64 {
	return r.vals[i*r.Arity : (i+1)*r.Arity : (i+1)*r.Arity]
}

// At returns column col of tuple i.
func (r *Relation) At(i, col int) int64 { return r.vals[i*r.Arity+col] }

// Grow pre-allocates capacity for n additional tuples.
func (r *Relation) Grow(n int) {
	need := len(r.vals) + n*r.Arity
	if cap(r.vals) < need {
		nv := make([]int64, len(r.vals), need)
		copy(nv, r.vals)
		r.vals = nv
	}
}

// Clone returns a deep copy.
func (r *Relation) Clone() *Relation {
	return &Relation{Name: r.Name, Arity: r.Arity, vals: append([]int64(nil), r.vals...)}
}

// SizeBits returns M_j = a_j · m_j · ⌈log₂ n⌉, the paper's size-in-bits
// measure for a relation over domain [n].
func (r *Relation) SizeBits(n int64) float64 {
	return float64(r.Arity) * float64(r.NumTuples()) * float64(BitsPerValue(n))
}

// BitsPerValue returns ⌈log₂ n⌉, the bits needed to encode one domain value.
func BitsPerValue(n int64) int {
	if n <= 1 {
		return 1
	}
	return bits.Len64(uint64(n - 1))
}

// Sorted returns a copy of r with its tuples in lexicographic order,
// duplicates kept. It is the tree's one tuple sort: Canonical,
// EqualMultiset and the canonical aggregate output all order through it.
func (r *Relation) Sorted() *Relation {
	m, a := r.NumTuples(), r.Arity
	idx := make([]int, m)
	for i := range idx {
		idx[i] = i
	}
	// A hand-rolled compare: slices.Compare's generic cmp.Compare makes the
	// sort about 1.4× slower on int64 tuples.
	slices.SortFunc(idx, func(i, j int) int {
		ti, tj := r.vals[i*a:(i+1)*a], r.vals[j*a:(j+1)*a]
		for c, v := range ti {
			if v != tj[c] {
				if v < tj[c] {
					return -1
				}
				return 1
			}
		}
		return 0
	})
	vals := make([]int64, 0, m*a)
	for _, i := range idx {
		vals = append(vals, r.Tuple(i)...)
	}
	return FromVals(r.Name, a, vals)
}

// Canonical returns a sorted, duplicate-free copy, used to compare query
// results for set equality.
func (r *Relation) Canonical() *Relation {
	out := r.Sorted()
	a, vals := out.Arity, out.vals[:0]
	for off := 0; off < len(out.vals); off += a {
		t := out.vals[off : off+a]
		if len(vals) > 0 && slices.Equal(vals[len(vals)-a:], t) {
			continue
		}
		vals = append(vals, t...)
	}
	out.vals = vals
	return out
}

// Equal reports whether a and b contain the same set of tuples
// (ignoring order and multiplicity).
func Equal(a, b *Relation) bool {
	return a.Arity == b.Arity && slices.Equal(a.Canonical().vals, b.Canonical().vals)
}

// EqualMultiset reports whether a and b contain the same bag of tuples:
// order is ignored but multiplicity is respected, so {t, t} ≠ {t}. This is
// the right comparison for query outputs, which are bags when the inputs
// contain duplicate tuples.
func EqualMultiset(a, b *Relation) bool {
	if a.Arity != b.Arity || a.NumTuples() != b.NumTuples() {
		return false
	}
	return slices.Equal(a.Sorted().vals, b.Sorted().vals)
}

// Database is a set of named relations over a common domain [n].
type Database struct {
	N         int64 // domain size
	Relations map[string]*Relation
}

// NewDatabase returns an empty database with domain size n.
func NewDatabase(n int64) *Database {
	return &Database{N: n, Relations: make(map[string]*Relation)}
}

// Add inserts (or replaces) a relation.
func (db *Database) Add(r *Relation) { db.Relations[r.Name] = r }

// Get returns the named relation; it panics if absent, since callers always
// look up atoms of a validated query.
func (db *Database) Get(name string) *Relation {
	r, ok := db.Relations[name]
	if !ok {
		panic(fmt.Sprintf("data: relation %q not in database", name))
	}
	return r
}

// TotalBits returns Σ_j M_j over all relations.
func (db *Database) TotalBits() float64 {
	total := 0.0
	for _, r := range db.Relations {
		total += r.SizeBits(db.N)
	}
	return total
}
