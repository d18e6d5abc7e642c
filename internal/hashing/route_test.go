package hashing

import (
	"math/rand"
	"slices"
	"testing"
)

// referenceDestinations is the allocating odometer Destinations was before
// routes were compiled: fixed-dimension flags, a free list, a counter per
// free dimension. Delivery order — and with it every golden fingerprint —
// is defined by this enumeration, so both Destinations and Route are held
// to it.
func referenceDestinations(g *Grid, dims, bins []int) []int {
	base := 0
	fixed := make([]bool, len(g.Shares))
	for i, d := range dims {
		if fixed[d] {
			if (base/g.strides[d])%g.Shares[d] != bins[i] {
				return nil
			}
			continue
		}
		fixed[d] = true
		base += bins[i] * g.strides[d]
	}
	var free []int
	for i, f := range fixed {
		if !f && g.Shares[i] > 1 {
			free = append(free, i)
		}
	}
	var out []int
	counters := make([]int, len(free))
	for {
		s := base
		for i, d := range free {
			s += counters[i] * g.strides[d]
		}
		out = append(out, s)
		i := 0
		for ; i < len(free); i++ {
			counters[i]++
			if counters[i] < g.Shares[free[i]] {
				break
			}
			counters[i] = 0
		}
		if i == len(free) {
			return out
		}
	}
}

// routed returns the servers a Route sends tuple to, in order.
func routed(r *Route, f *Family, tuple []int64) []int {
	base, ok := r.Base(f, tuple)
	if !ok {
		return nil
	}
	out := make([]int, 0, len(r.Offsets()))
	for _, off := range r.Offsets() {
		out = append(out, base+off)
	}
	return out
}

// TestRouteMatchesDestinations is the route-equivalence property: over
// random grids (k ≤ 6, shares including 1) and random atoms (repeated
// dimensions, unhashed columns, all-free and all-fixed), a compiled Route
// yields exactly the server sequence of Destinations — same order, empty
// exactly when a repeated variable's bins disagree — and BaseOf names, for
// every server of the grid, the one base whose tuples reach it.
func TestRouteMatchesDestinations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	empties, repeats := 0, 0
	for trial := 0; trial < 2000; trial++ {
		k := 1 + rng.Intn(6)
		shares := make([]int, k)
		for i := range shares {
			shares[i] = 1 + rng.Intn(4)
		}
		g := NewGrid(shares)
		f := NewFamily(rng.Int63(), k)

		// Atom shape: trial%4 forces the two corner cases, otherwise random
		// columns with dimensions drawn with replacement (so repeats occur)
		// and the occasional unhashed column.
		var cols []int
		switch trial % 4 {
		case 0: // all free: no hashed column at all
			for c := rng.Intn(3); c > 0; c-- {
				cols = append(cols, -1)
			}
		case 1: // all fixed: every dimension hashed
			cols = rng.Perm(k)
		default:
			for c := 1 + rng.Intn(4); c > 0; c-- {
				if rng.Intn(5) == 0 {
					cols = append(cols, -1)
				} else {
					cols = append(cols, rng.Intn(k))
				}
			}
		}
		route := NewRoute(g, cols)

		for rep := 0; rep < 8; rep++ {
			tuple := make([]int64, len(cols))
			for c := range tuple {
				tuple[c] = rng.Int63n(40)
			}
			// A small domain makes repeated columns agree often enough that
			// both outcomes of a guard are exercised.
			var dims, bins []int
			for c, d := range cols {
				if d >= 0 {
					if slices.Contains(dims, d) {
						repeats++
					}
					dims = append(dims, d)
					bins = append(bins, f.Bin(d, tuple[c], shares[d]))
				}
			}
			want := referenceDestinations(g, dims, bins)
			var viaGrid []int
			g.Destinations(dims, bins, func(s int) { viaGrid = append(viaGrid, s) })
			if !slices.Equal(viaGrid, want) {
				t.Fatalf("shares %v dims %v bins %v: Destinations %v, reference %v", shares, dims, bins, viaGrid, want)
			}
			if got := routed(route, f, tuple); !slices.Equal(got, want) {
				t.Fatalf("shares %v cols %v tuple %v: Route %v, Destinations %v", shares, cols, tuple, got, want)
			}
			// BaseOf inverts Base: the tuple reaches exactly the servers whose
			// BaseOf is its base.
			if base, ok := route.Base(f, tuple); ok {
				reached := make([]bool, g.P())
				for _, s := range want {
					reached[s] = true
				}
				for s, in := range reached {
					if (route.BaseOf(s) == base) != in {
						t.Fatalf("shares %v cols %v tuple %v: server %d reached=%v but BaseOf %d vs base %d",
							shares, cols, tuple, s, in, route.BaseOf(s), base)
					}
				}
			}
			if want == nil {
				empties++
			} else if len(want) != g.SubcubeSize(dims) {
				t.Fatalf("shares %v dims %v: %d destinations, SubcubeSize %d", shares, dims, len(want), g.SubcubeSize(dims))
			}
		}
	}
	if empties == 0 || repeats == empties {
		t.Fatalf("property did not exercise both guard outcomes: %d repeated columns, %d empty subcubes", repeats, empties)
	}
}

// TestRoutingAllocatesNothing pins the steady-state contract of the shuffle:
// neither routing a tuple through a compiled Route nor enumerating a subcube
// with Grid.Destinations touches the heap.
func TestRoutingAllocatesNothing(t *testing.T) {
	g := NewGrid([]int{4, 1, 4, 2, 3})
	f := NewFamily(3, 5)
	route := NewRoute(g, []int{0, 3, 0})
	tuple := []int64{17, 5, 17}
	sink := 0
	if n := testing.AllocsPerRun(200, func() {
		if base, ok := route.Base(f, tuple); ok {
			for _, off := range route.Offsets() {
				sink += base + off
			}
		}
	}); n != 0 {
		t.Errorf("Route routing: %v allocs per tuple, want 0", n)
	}
	dims, bins := []int{0, 3, 0}, []int{2, 1, 2}
	if n := testing.AllocsPerRun(200, func() {
		g.Destinations(dims, bins, func(s int) { sink += s })
	}); n != 0 {
		t.Errorf("Grid.Destinations: %v allocs per call, want 0", n)
	}
	if sink == 0 {
		t.Fatal("nothing was routed")
	}
}
