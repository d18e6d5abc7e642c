// Example aggregation: COUNT over a skewed join with pre-shuffle partial
// aggregation — the workload where combining tuples before the shuffle
// provably shrinks communication.
//
// The query is the simple join T2(z,x1,x2) = S1(z,x1), S2(z,x2) over data
// with two hot z values; COUNT(*) GROUP BY z therefore has a few groups with
// enormous multiplicity. The example runs it twice, with and without
// pushdown, and prints the identical group counts next to the very different
// bits-on-the-wire.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"mpcquery"
)

func main() {
	const m = 2000
	rng := rand.New(rand.NewSource(1))
	// Hot values 7 and 11 carry three quarters of both relations.
	db := mpcquery.SkewedStarDatabase(rng, 2, m, 1<<16, map[int64]int{7: m / 2, 11: m / 4})

	q := mpcquery.Star(2) // T2(z,x1,x2) :- S1(z,x1), S2(z,x2)
	count := mpcquery.WithAggregate(mpcquery.AggCount, "", "z")

	pushdown, err := mpcquery.Run(q, db, mpcquery.WithServers(64), count)
	if err != nil {
		log.Fatal(err)
	}
	raw, err := mpcquery.Run(q, db, mpcquery.WithServers(64), count,
		mpcquery.WithAggregatePushdown(false))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("count(*) by z, top groups (identical in both runs):")
	for i := 0; i < pushdown.Output.NumTuples() && i < 5; i++ {
		fmt.Printf("  z=%-6d count=%d\n", pushdown.Output.At(i, 0), pushdown.Output.At(i, 1))
	}
	fmt.Printf("\nvalues identical: %t\n", mpcquery.EqualRelations(pushdown.Output, raw.Output))
	fmt.Printf("total bits, no pushdown : %14.0f\n", raw.TotalBits)
	fmt.Printf("total bits, pushdown    : %14.0f  (%.0fx less)\n",
		pushdown.TotalBits, raw.TotalBits/pushdown.TotalBits)
	fmt.Printf("bits saved by combining : %14.0f\n", pushdown.AggregateBitsSaved)
}
