package hashing

import "testing"

func BenchmarkBin(b *testing.B) {
	f := NewFamily(1, 3)
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += f.Bin(i%3, int64(i), 16)
	}
	_ = sink
}

// BenchmarkDestinations measures subcube enumeration for a binary atom on a
// 3-dimensional grid (the routing inner loop of the HyperCube shuffle).
func BenchmarkDestinations(b *testing.B) {
	g := NewGrid([]int{4, 4, 4})
	count := 0
	for i := 0; i < b.N; i++ {
		g.Destinations([]int{0, 1}, []int{i % 4, (i + 1) % 4}, func(s int) { count++ })
	}
	_ = count
}

// BenchmarkRoute is BenchmarkDestinations through a compiled Route: hash the
// two columns, walk the offset table.
func BenchmarkRoute(b *testing.B) {
	g := NewGrid([]int{4, 4, 4})
	f := NewFamily(1, 3)
	r := NewRoute(g, []int{0, 1})
	tuple := []int64{0, 0}
	count := 0
	for i := 0; i < b.N; i++ {
		tuple[0], tuple[1] = int64(i), int64(i+1)
		if base, ok := r.Base(f, tuple); ok {
			for _, off := range r.Offsets() {
				count += base + off
			}
		}
	}
	_ = count
}
