// Command mpcbench regenerates every table and worked example of the paper
// (experiments.All, E1–E17 in index order) and prints paper-predicted vs
// measured values.
//
// Usage:
//
//	mpcbench [-quick] [-seed N] [-md] [-only E5]
//	mpcbench -compare [-m 5000] [-p 64] [-seed N]
//
// -quick shrinks input sizes (useful for smoke runs); -md emits markdown
// (the format of EXPERIMENTS.md); -only runs a single experiment by id.
// -compare skips the paper tables and instead runs every strategy of the
// unified Run API side by side on one shared workload per query family and
// prints the model costs (rounds, loads, replication). It times nothing:
// wall-clock numbers come from `bash benchmark/run.sh` and `go test -bench`.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"time"
	"unicode/utf8"

	"mpcquery"
	"mpcquery/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "use reduced input sizes")
	seed := flag.Int64("seed", 42, "base random seed")
	md := flag.Bool("md", false, "emit markdown instead of aligned text")
	jsonOut := flag.Bool("json", false, "emit JSON instead of text")
	only := flag.String("only", "", "run a single experiment id (e.g. E5)")
	outPath := flag.String("out", "", "also write the output to this file")
	compare := flag.Bool("compare", false, "run every Run strategy side by side on shared workloads")
	m := flag.Int("m", 5000, "tuples per relation (-compare)")
	p := flag.Int("p", 64, "servers (-compare)")
	flag.Parse()

	if *compare {
		if *jsonOut || *md || *quick || *only != "" || *outPath != "" {
			fmt.Fprintln(os.Stderr, "mpcbench: -compare does not support -json, -md, -quick, -only, or -out")
			os.Exit(2)
		}
		compareStrategies(*m, *p, *seed)
		return
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpcbench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick}
	start := time.Now()
	tables := experiments.All(cfg)
	var matched bool
	for _, t := range tables {
		if *only != "" && !strings.EqualFold(t.ID, *only) {
			continue
		}
		matched = true
		switch {
		case *jsonOut:
			b, err := t.JSON()
			if err != nil {
				fmt.Fprintf(os.Stderr, "mpcbench: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintln(out, string(b))
		case *md:
			fmt.Fprintln(out, t.Markdown())
		default:
			fmt.Fprintln(out, t.Format())
		}
	}
	if *only != "" && !matched {
		fmt.Fprintf(os.Stderr, "mpcbench: unknown experiment %q\n", *only)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "mpcbench: %d experiments in %v (quick=%v, seed=%d)\n",
		len(tables), time.Since(start).Round(time.Millisecond), *quick, *seed)
}

// compareStrategies is the unified-API benchmark: one shared workload per
// query family, every applicable strategy executed through Run, costs
// printed side by side — the Table 3 tradeoff, measured.
func compareStrategies(m, p int, seed int64) {
	type workload struct {
		name       string
		q          *mpcquery.Query
		db         *mpcquery.Database
		strategies []mpcquery.Strategy
	}
	n := int64(16 * m)
	rng := rand.New(rand.NewSource(seed))

	tri := mpcquery.Triangle()
	triDB := mpcquery.SkewedTriangleDatabase(rng, m, n, 7, m/2)
	star := mpcquery.Star(2)
	starDB := mpcquery.SkewedStarDatabase(rng, 2, m, n, map[int64]int{7: m / 2})
	chain := mpcquery.Chain(8)
	chainDB := mpcquery.ChainMatchingDatabase(rng, 8, m, n)

	workloads := []workload{
		{"triangle, half-skewed", tri, triDB, []mpcquery.Strategy{
			mpcquery.HyperCube(), mpcquery.HyperCubeOblivious(),
			mpcquery.SkewedTriangle(), mpcquery.SkewedGeneric(), mpcquery.Auto(),
		}},
		{"simple join, half-skewed", star, starDB, []mpcquery.Strategy{
			mpcquery.HyperCube(), mpcquery.HyperCubeOblivious(),
			mpcquery.SkewedStarSampled(200), mpcquery.SkewedGeneric(), mpcquery.Auto(),
		}},
		{"chain L8, matchings", chain, chainDB, []mpcquery.Strategy{
			mpcquery.HyperCube(), mpcquery.ChainPlan(0), mpcquery.ChainPlan(0.5),
			mpcquery.GreedyPlan(0), mpcquery.Auto(),
		}},
	}

	for _, w := range workloads {
		fmt.Printf("%s  (q=%s, m=%d, p=%d)\n", w.name, w.q, m, p)
		fmt.Printf("  %-28s %7s %14s %14s %8s %8s %8s\n",
			"strategy", "rounds", "max load", "predicted", "ratio", "repl", "output")
		want := mpcquery.SequentialAnswer(w.q, w.db)
		for _, s := range w.strategies {
			rep, err := mpcquery.Run(w.q, w.db,
				mpcquery.WithStrategy(s), mpcquery.WithServers(p), mpcquery.WithSeed(seed))
			if err != nil {
				fmt.Printf("  %-28s ERROR: %v\n", s.Name(), err)
				continue
			}
			status := ""
			if !mpcquery.EqualRelations(rep.Output, want) {
				status = "  OUTPUT MISMATCH"
			}
			ratio := "-"
			if r := rep.LoadRatio(); r > 0 {
				ratio = fmt.Sprintf("%.2f", r)
			}
			fmt.Printf("  %s %7d %14.0f %14.0f %8s %8.2f %8d%s\n",
				padRight(rep.Strategy, 28), rep.Rounds, rep.MaxLoadBits, rep.PredictedLoadBits,
				ratio, rep.ReplicationRate, rep.Output.NumTuples(), status)
		}
		fmt.Println()
	}
}

// padRight pads s with spaces to width display columns; %-28s pads by
// bytes, which misaligns strategy names containing '→' or 'ε'.
func padRight(s string, width int) string {
	if n := utf8.RuneCountInString(s); n < width {
		return s + strings.Repeat(" ", width-n)
	}
	return s
}
