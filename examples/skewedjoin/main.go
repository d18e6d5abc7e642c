// Skewed join (Example 4.1): the simple join q(x,y,z) = S1(x,z), S2(y,z)
// where a growing fraction of both relations shares a single z-value.
// Three strategies face the same input through the one Run entry point:
//
//   - HyperCubeShares with all shares on z — the naive parallel hash join,
//     which collapses to load Θ(M) because every heavy tuple lands on one
//     server;
//   - HyperCubeOblivious — the worst-case shares of LP (18), which hold
//     M/p^{1/3} regardless of the data;
//   - SkewedStar — the Section 4.2.1 algorithm, run by the generic
//     heavy/light-pattern planner: it knows the heavy hitters and computes
//     each one's residual Cartesian product on a block of its own, tracking
//     the optimal bound (20).
package main

import (
	"fmt"
	"math/rand"

	"mpcquery"
)

func main() {
	q := mpcquery.Star(2) // S1(z,x1), S2(z,x2): the simple join
	const (
		m = 8000
		p = 16
		n = 1 << 20
	)
	fmt.Printf("query %s, m=%d tuples per relation, p=%d servers\n\n", q, m, p)
	fmt.Printf("%-14s  %14s  %14s  %14s  %12s\n",
		"heavy frac", "naive L(bits)", "oblivious L", "skew-aware L", "LB (20)")

	// Naive parallel hash join: all shares on z.
	shares := []int{1, 1, 1}
	shares[q.VarIndex("z")] = p

	for _, frac := range []float64{0, 0.25, 0.5, 1.0} {
		rng := rand.New(rand.NewSource(11))
		heavy := map[int64]int{}
		if frac > 0 {
			heavy[7] = int(frac * float64(m))
		}
		db := mpcquery.SkewedStarDatabase(rng, 2, m, n, heavy)

		loads := make(map[string]float64, 3)
		for name, s := range map[string]mpcquery.Strategy{
			"naive":     mpcquery.HyperCubeShares(shares...),
			"oblivious": mpcquery.HyperCubeOblivious(),
			"aware":     mpcquery.SkewedStar(),
		} {
			rep, err := mpcquery.Run(q, db,
				mpcquery.WithStrategy(s), mpcquery.WithServers(p), mpcquery.WithSeed(3))
			if err != nil {
				panic(err)
			}
			loads[name] = rep.MaxLoadBits
		}

		freq := make([]map[int64]float64, 2)
		for j, a := range q.Atoms {
			rel := db.Get(a.Name)
			freq[j] = mpcquery.FrequenciesBits(mpcquery.ColumnFrequencies(rel, 0), 2, n)
		}
		lb := mpcquery.StarSkewLB(freq, p)

		fmt.Printf("%-14.2f  %14.0f  %14.0f  %14.0f  %12.0f\n",
			frac, loads["naive"], loads["oblivious"], loads["aware"], lb)
	}

	fmt.Println("\nreading the table: the naive join degrades linearly with the heavy")
	fmt.Println("fraction (at frac=1 one server receives all 2m tuples), while the")
	fmt.Println("skew-aware algorithm stays within a constant of the lower bound.")
}
