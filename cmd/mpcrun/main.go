// Command mpcrun executes one query end-to-end on the simulated MPC
// cluster: it generates a workload, runs the chosen strategy through the
// unified Run API, verifies the output against a sequential join, and
// prints the Report.
//
// Usage:
//
//	mpcrun -family triangle -m 10000 -p 64 -algo hc
//	mpcrun -family chain -k 8 -m 5000 -p 64 -algo multiround -eps 0.5
//	mpcrun -family star -k 2 -m 5000 -p 16 -algo generic -skew 0.5
//	mpcrun -family chain -k 8 -m 5000 -p 64 -algo auto -budget 2
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"mpcquery"
)

func main() {
	family := flag.String("family", "triangle", "query family: triangle|cycle|chain|star|spokedwheel")
	k := flag.Int("k", 3, "family size parameter")
	m := flag.Int("m", 10000, "tuples per relation")
	p := flag.Int("p", 64, "number of servers")
	algo := flag.String("algo", "hc", "strategy: hc|oblivious|star-sampled|generic|multiround|auto")
	eps := flag.Float64("eps", 0, "space exponent (multiround)")
	budget := flag.Int("budget", 0, "round budget for -algo auto (0 = unlimited)")
	skewFrac := flag.Float64("skew", 0, "fraction of tuples carrying one heavy value")
	seed := flag.Int64("seed", 1, "random seed")
	verify := flag.Bool("verify", true, "compare against a sequential join")
	flag.Parse()
	if *m < 0 {
		usageError("-m must be non-negative, got %d", *m)
	}

	var strategy mpcquery.Strategy
	switch *algo {
	case "hc":
		strategy = mpcquery.HyperCube()
	case "oblivious":
		strategy = mpcquery.HyperCubeOblivious()
	case "star-sampled":
		strategy = mpcquery.SkewedStarSampled(200)
	case "generic":
		strategy = mpcquery.SkewedGeneric()
	case "multiround":
		strategy = mpcquery.GreedyPlan(*eps)
	case "auto":
		strategy = mpcquery.Auto()
	default:
		usageError("unknown algorithm %q", *algo)
	}

	rng := rand.New(rand.NewSource(*seed))
	q := buildQuery(*family, *k)
	n := int64(16 * *m)
	db := buildData(rng, q, *family, *m, n, *skewFrac, *p)

	rep, err := mpcquery.Run(q, db,
		mpcquery.WithStrategy(strategy),
		mpcquery.WithServers(*p),
		mpcquery.WithSeed(*seed),
		mpcquery.WithRoundBudget(*budget))
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpcrun: %v\n", err)
		os.Exit(1)
	}

	fmt.Print(rep)

	if *verify {
		want := mpcquery.SequentialAnswer(q, db)
		if mpcquery.EqualRelations(rep.Output, want) {
			fmt.Println("verify   : OK (matches sequential join)")
		} else {
			fmt.Printf("verify   : MISMATCH (sequential has %d tuples)\n", want.NumTuples())
			os.Exit(1)
		}
	}
}

// usageError reports a flag value mpcrun cannot run with and exits 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpcrun: "+format+"\n", args...)
	os.Exit(2)
}

func buildQuery(family string, k int) *mpcquery.Query {
	var build func(int) *mpcquery.Query
	minK := 1
	switch family {
	case "triangle":
		return mpcquery.Triangle()
	case "cycle":
		build, minK = mpcquery.Cycle, 2
	case "chain":
		build = mpcquery.Chain
	case "star":
		build = mpcquery.Star
	case "spokedwheel":
		build = mpcquery.SpokedWheel
	default:
		usageError("unknown family %q", family)
	}
	if k < minK {
		usageError("-family %s needs -k >= %d, got %d", family, minK, k)
	}
	return build(k)
}

func buildData(rng *rand.Rand, q *mpcquery.Query, family string, m int, n int64, skewFrac float64, p int) *mpcquery.Database {
	switch {
	case family == "star" && skewFrac > 0:
		return mpcquery.SkewedStarDatabase(rng, q.NumAtoms(), m, n, map[int64]int{7: int(skewFrac * float64(m))})
	case family == "triangle" && skewFrac > 0:
		return mpcquery.SkewedTriangleDatabase(rng, m, n, 7, int(skewFrac*float64(m)))
	case family == "chain":
		return mpcquery.ChainMatchingDatabase(rng, q.NumAtoms(), m, n)
	default:
		return mpcquery.MatchingDatabase(rng, q, m, n)
	}
}
