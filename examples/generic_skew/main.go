// Generalized skew handling: the paper's specialized algorithms cover star
// and triangle queries; its reference [6] generalizes the technique to
// arbitrary conjunctive queries by splitting every variable's domain into
// heavy values (degree at least ⌊m_j/s_v⌋, s the skew-free grid's shares)
// and light values, binning the heavy values by degree, and giving each
// pattern of bins its own HyperCube block. The same planner runs SkewedStar
// and SkewedTriangle. This example
// runs it on a query outside the paper's cases — the chain L3 with one heavy
// value in the middle relation, on x1 or on x2 — and compares it with the
// vanilla (skew-free-optimal) HyperCube, both through Run.
package main

import (
	"fmt"
	"math/rand"

	"mpcquery"
)

func main() {
	q := mpcquery.Chain(3) // S1(x0,x1), S2(x1,x2), S3(x2,x3)
	const (
		m = 6000
		p = 64
		n = 1 << 20
	)
	fmt.Printf("query %s, m=%d, p=%d\n\n", q, m, p)
	fmt.Printf("%-6s  %-18s  %14s  %14s  %10s\n", "heavy", "heavy middle frac", "vanilla L", "pattern L", "ratio")

	for _, col := range []int{0, 1} {
		for _, frac := range []float64{0, 0.25, 0.5} {
			rng := rand.New(rand.NewSource(9))
			db := mpcquery.NewDatabase(n)
			db.Add(randomMatchingRel(rng, "S1", m, n))
			db.Add(heavyMiddle(rng, "S2", m, n, col, frac))
			db.Add(randomMatchingRel(rng, "S3", m, n))

			vanilla, err := mpcquery.Run(q, db, mpcquery.WithServers(p), mpcquery.WithSeed(3))
			if err != nil {
				panic(err)
			}
			pattern, err := mpcquery.Run(q, db,
				mpcquery.WithStrategy(mpcquery.SkewedGeneric()),
				mpcquery.WithServers(p), mpcquery.WithSeed(3))
			if err != nil {
				panic(err)
			}

			if !mpcquery.EqualRelations(vanilla.Output, pattern.Output) {
				panic("outputs differ")
			}
			fmt.Printf("%-6s  %-18.2f  %14.0f  %14.0f  %10.2f\n",
				fmt.Sprintf("x%d", col+1), frac, vanilla.MaxLoadBits, pattern.MaxLoadBits,
				vanilla.MaxLoadBits/pattern.MaxLoadBits)
		}
	}

	fmt.Println("\nthe skew-free shares of L3 are 8 on x0 and x2 and 1 on x1 and x3.")
	fmt.Println("A value of x2 is heavy once its degree reaches m/8: the vanilla")
	fmt.Println("HyperCube sends all its tuples to one x2 bin, while the pattern")
	fmt.Println("algorithm peels it into its own server block (a residual join on")
	fmt.Println("the remaining variables). The cut of x1 is m, the whole relation,")
	fmt.Println("so no x1 value is heavy: vanilla never hashes x1, its skew costs")
	fmt.Println("nothing, and the pattern run is the vanilla run. A cut of m/p would")
	fmt.Println("peel the x1 value anyway and gain 1.09x / 1.21x on these rows; the")
	fmt.Println("share cut gives that up so that one cut serves every query. The")
	fmt.Println("point here is generality: the same planner runs SkewedStar and")
	fmt.Println("SkewedTriangle, and chains besides.")
}

func randomMatchingRel(rng *rand.Rand, name string, m int, n int64) *mpcquery.Relation {
	rel := mpcquery.NewRelation(name, 2)
	a := sample(rng, m, n)
	b := sample(rng, m, n)
	for i := 0; i < m; i++ {
		rel.Append(a[i], b[i])
	}
	return rel
}

// heavyMiddle builds S2 where frac of the tuples hold 7 in column col
// (0: x1, 1: x2).
func heavyMiddle(rng *rand.Rand, name string, m int, n int64, col int, frac float64) *mpcquery.Relation {
	rel := mpcquery.NewRelation(name, 2)
	heavy := int(frac * float64(m))
	left := sample(rng, m, n)
	right := sample(rng, m, n)
	for i := 0; i < m; i++ {
		if i < heavy && col == 0 {
			rel.Append(7, right[i])
		} else if i < heavy {
			rel.Append(left[i], 7)
		} else {
			rel.Append(left[i], right[i])
		}
	}
	return rel
}

func sample(rng *rand.Rand, m int, n int64) []int64 {
	seen := make(map[int64]bool, m)
	out := make([]int64, 0, m)
	for len(out) < m {
		v := rng.Int63n(n)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
