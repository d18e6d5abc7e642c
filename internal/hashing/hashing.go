// Package hashing provides the seeded per-dimension hash functions and the
// hypercube coordinate grid used by the HyperCube algorithm (Section 3.1):
// servers are points of [p1]×…×[pk], and a tuple t of relation Sj is routed
// to the destination subcube D(t) = {y | ∀m: h_{i_m}(t[i_m]) = y_{i_m}}.
// A Block places such a grid on a range of servers with every atom's
// compiled Route, and a Layout finds the block that holds a server.
//
// The paper assumes perfectly random (strongly universal) hash functions;
// we substitute a SplitMix64 finalizer keyed per (seed, dimension), whose
// balls-in-bins tails are validated empirically against the Appendix A
// bounds in package ballsbins.
package hashing

import (
	"fmt"
	"slices"
	"sort"
)

// Family is a collection of independent hash functions, one per dimension
// (query variable), all derived from a single seed.
type Family struct {
	seeds []uint64
}

// NewFamily derives dims independent hash functions from seed.
func NewFamily(seed int64, dims int) *Family {
	f := &Family{seeds: make([]uint64, dims)}
	s := uint64(seed)
	for i := range f.seeds {
		s += 0x9e3779b97f4a7c15
		f.seeds[i] = mix64(s)
	}
	return f
}

// Hash returns the full 64-bit hash of value v under dimension dim's
// function.
func (f *Family) Hash(dim int, v int64) uint64 {
	return mix64(uint64(v) ^ f.seeds[dim])
}

// Bin returns h_dim(v) reduced to [0, share) — the coordinate of v along
// dimension dim in a grid with that many shares.
func (f *Family) Bin(dim int, v int64, share int) int {
	if share <= 1 {
		return 0
	}
	// Multiply-shift reduction avoids modulo bias for small share counts.
	h := f.Hash(dim, v)
	return int((h >> 32) * uint64(share) >> 32)
}

// mix64 is the SplitMix64 finalizer: a fast, well-distributed 64-bit mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 exposes the SplitMix64 finalizer for hash-table keying elsewhere in
// the tree (the local-join kernel's open-addressed indexes): a stateless,
// allocation-free 64-bit mixer.
func Mix64(z uint64) uint64 { return mix64(z) }

// Combine folds one more 64-bit value into a running hash. Chaining Combine
// over a sequence gives an order-sensitive digest suitable for multi-column
// join keys and output-stream digests.
func Combine(h, v uint64) uint64 {
	return mix64(h ^ (v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)))
}

// CombineSlice folds a whole []int64 key into a running hash starting from
// seed — the shared shape of every composite-key hash in the tree (group
// keys, aggregate destinations, routing keys). Distinct call sites keep distinct
// seeds so their hash spaces stay independent.
func CombineSlice(seed uint64, vals []int64) uint64 {
	h := seed
	for _, v := range vals {
		h = Combine(h, uint64(v))
	}
	return h
}

// Grid maps between linear server ids [0,p) and coordinate vectors of the
// k-dimensional hypercube [p1]×…×[pk], where p = Πᵢ pᵢ.
type Grid struct {
	Shares  []int
	strides []int
	p       int
}

// NewGrid builds a grid with the given per-dimension shares (each ≥ 1).
func NewGrid(shares []int) *Grid {
	p := 1
	strides := make([]int, len(shares))
	for i := len(shares) - 1; i >= 0; i-- {
		if shares[i] < 1 {
			panic(fmt.Sprintf("hashing: share %d of dimension %d", shares[i], i))
		}
		strides[i] = p
		p *= shares[i]
	}
	return &Grid{Shares: append([]int(nil), shares...), strides: strides, p: p}
}

// P returns the number of servers Πᵢ pᵢ covered by the grid.
func (g *Grid) P() int { return g.p }

// ServerOf linearizes a coordinate vector.
func (g *Grid) ServerOf(coords []int) int {
	s := 0
	for i, c := range coords {
		if c < 0 || c >= g.Shares[i] {
			panic(fmt.Sprintf("hashing: coordinate %d out of range for dimension %d (share %d)", c, i, g.Shares[i]))
		}
		s += c * g.strides[i]
	}
	return s
}

// CoordsOf writes the coordinate vector of a server id into out (which must
// have length len(Shares)) and returns it.
func (g *Grid) CoordsOf(server int, out []int) []int {
	for i := range g.Shares {
		out[i] = server / g.strides[i] % g.Shares[i]
	}
	return out
}

// destScratch is the stack space Destinations enumerates a subcube in. A
// free dimension has share ≥ 2, so 16 of them cover every grid of up to 2¹⁶
// servers without touching the heap (append spills larger ones: nothing is
// capped).
const destScratch = 16

// Destinations calls yield for every server in the destination subcube
// determined by fixing dimensions dims[i] to coordinates bins[i] and
// ranging over all other dimensions — the set D(t) of equation (9). It is
// the reference enumeration: a Route precompiles exactly this order, and
// the strategies route through Routes; Destinations itself allocates
// nothing.
func (g *Grid) Destinations(dims, bins []int, yield func(server int)) {
	base := 0
	for i, d := range dims {
		// A dimension may be fixed twice (repeated variable in an atom);
		// if the two bins disagree the subcube is empty.
		if first := slices.Index(dims[:i], d); first >= 0 {
			if bins[first] != bins[i] {
				return
			}
			continue
		}
		base += bins[i] * g.strides[d]
	}
	var freeBuf, counterBuf [destScratch]int
	free, counters := freeBuf[:0], counterBuf[:0]
	for i, share := range g.Shares {
		if share > 1 && slices.Index(dims, i) < 0 {
			free = append(free, i)
			counters = append(counters, 0)
		}
	}
	// Odometer over the free dimensions.
	for {
		s := base
		for i, d := range free {
			s += counters[i] * g.strides[d]
		}
		yield(s)
		i := 0
		for ; i < len(free); i++ {
			counters[i]++
			if counters[i] < g.Shares[free[i]] {
				break
			}
			counters[i] = 0
		}
		if i == len(free) {
			return
		}
	}
}

// Route is the routing function of one atom over one grid, compiled once so
// that routing a tuple is base = Σ bin·stride over the atom's hashed columns
// plus a walk over a precomputed table of subcube offsets: the destinations
// of t are base+offsets[i], in exactly the order Destinations yields them. A
// Route is immutable and safe for concurrent use; the hash family stays a
// per-call argument because it changes with every seed while the route is
// part of the (cached) plan.
type Route struct {
	fixed   []routeCol // first occurrence of every hashed dimension with share > 1
	guards  []routeCol // repeated occurrences: must land in the same bin as src
	offsets []int      // never empty: offsets[0] == 0
}

// routeCol is one hashed column: tuple[col] is binned along dim. For a guard,
// src is the column of the dimension's first occurrence.
type routeCol struct {
	col, dim, share, stride, src int
}

// NewRoute compiles the route of an atom whose column c carries grid
// dimension dims[c]; dims[c] < 0 marks a column the route does not hash (the
// dimension stays free unless another column fixes it).
func NewRoute(g *Grid, dims []int) *Route {
	r := &Route{}
	var hashed []int
	for c, d := range dims {
		if d < 0 {
			continue
		}
		hashed = append(hashed, d)
		// A share of 1 has the single bin 0: nothing to add, nothing to guard.
		if g.Shares[d] == 1 {
			continue
		}
		rc := routeCol{col: c, dim: d, share: g.Shares[d], stride: g.strides[d]}
		if first := slices.Index(dims[:c], d); first >= 0 {
			rc.src = first
			r.guards = append(r.guards, rc)
		} else {
			r.fixed = append(r.fixed, rc)
		}
	}
	zeros := make([]int, len(hashed))
	g.Destinations(hashed, zeros, func(s int) { r.offsets = append(r.offsets, s) })
	return r
}

// Base returns the first destination of tuple under family f, or ok = false
// when a repeated variable's two values fall in different bins and the
// subcube is empty.
func (r *Route) Base(f *Family, tuple []int64) (base int, ok bool) {
	for i := range r.fixed {
		c := &r.fixed[i]
		base += f.Bin(c.dim, tuple[c.col], c.share) * c.stride
	}
	for i := range r.guards {
		c := &r.guards[i]
		if f.Bin(c.dim, tuple[c.col], c.share) != f.Bin(c.dim, tuple[c.src], c.share) {
			return 0, false
		}
	}
	return base, true
}

// BaseOf is the inverse of Base: the base of the one subcube of this route
// that contains server (a grid-relative id) — the server's own coordinates
// on the hashed dimensions, 0 on the free ones. A tuple t reaches server
// exactly when Base(t) == BaseOf(server), so servers with equal BaseOf
// receive the same tuples through the route, from every sender in the same
// order: the value names the fragment they share before a tuple has moved.
func (r *Route) BaseOf(server int) int {
	base := 0
	for i := range r.fixed {
		c := &r.fixed[i]
		base += server / c.stride % c.share * c.stride
	}
	return base
}

// Offsets returns the subcube offset table: tuple t goes to Base(t)+off for
// every off, in order. The caller must not modify it.
func (r *Route) Offsets() []int { return r.offsets }

// Block is a grid placed on the servers [Offset, Offset+Grid.P()) with the
// compiled route of every atom into it: Routes[j] routes the tuples of atom
// j (message kind j). It is the one primitive of every one-round strategy —
// HyperCube is one block at offset 0, and the skew algorithms place a block
// per light part, heavy hitter or heavy/light pattern. A Block is immutable
// and safe for concurrent use.
type Block struct {
	Offset int
	Grid   *Grid
	Routes []*Route
}

// NewBlock places grid at offset and compiles the route of every atom j
// whose column c carries grid dimension atomDims[j][c] (see NewRoute).
func NewBlock(offset int, grid *Grid, atomDims [][]int) *Block {
	b := &Block{Offset: offset, Grid: grid, Routes: make([]*Route, len(atomDims))}
	for j, dims := range atomDims {
		b.Routes[j] = NewRoute(grid, dims)
	}
	return b
}

// Layout is a cluster's blocks in ascending server order. Servers outside
// every block (input servers, gaps) receive their tuples some other way.
type Layout []*Block

// Find returns the index of the block that holds server, or -1 when no block
// does.
func (l Layout) Find(server int) int {
	i := sort.Search(len(l), func(i int) bool { return l[i].Offset > server }) - 1
	if i < 0 || server >= l[i].Offset+l[i].Grid.P() {
		return -1
	}
	return i
}

// SubcubeSize returns |D(t)| for a tuple fixing the given dimensions: the
// product of the shares of all unfixed dimensions (the replication factor
// of the routed tuple).
func (g *Grid) SubcubeSize(dims []int) int {
	fixed := make([]bool, len(g.Shares))
	for _, d := range dims {
		fixed[d] = true
	}
	size := 1
	for i, f := range fixed {
		if !f {
			size *= g.Shares[i]
		}
	}
	return size
}
