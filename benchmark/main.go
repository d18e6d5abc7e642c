// Command benchmark is the repository's one benchmark: four workloads over
// the whole engine, end-to-end metrics from an untraced measured phase and
// per-layer metrics from a separate traced phase. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		opt       options
		name      = flag.String("workload", "", "run one workload and print the driver's result line (default: all workloads, both phases)")
		trace     = flag.Int("trace", 0, "with -workload: 0 = measured phase (end-to-end metrics), 1 = traced phase (per-layer metrics)")
		out       = flag.String("out", "", "write the JSON document (with -workload: of that phase) to this file")
		selfcheck = flag.Bool("selfcheck", false, "run everything twice and compare the end-to-end metrics against the bounds in BENCHMARK.json")
		commit    = flag.String("commit", "", "with -selfcheck: the commit measured, recorded in the document")
	)
	flag.Int64Var(&opt.seed, "seed", 1, "seed of the generated inputs and hash functions")
	flag.Float64Var(&opt.seconds, "seconds", 20, "measured duration of each phase")
	flag.IntVar(&opt.passes, "passes", 0, "run exactly this many passes per phase instead of -seconds")
	flag.IntVar(&opt.m, "m", 0, "override the relation size of every workload")
	flag.Parse()

	// Up to four cores: the engine's worker pool follows GOMAXPROCS, and the
	// Go runtime before 1.25 ignores a container's CPU quota.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(opt, *commit, *out)
	case *name != "":
		err = runOne(*name, *trace, opt, *out)
	default:
		var doc *document
		if doc, err = runAll(opt); err == nil {
			if err = writeJSON(*out, doc); err == nil && doc.failed() > 0 {
				err = fmt.Errorf("%d runs failed", doc.failed())
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runPhase runs one phase of one workload and prints its metric lines.
func runPhase(w *workload, trace int, opt options) (*workloadResult, error) {
	measure := measureEndToEnd
	if trace == 1 {
		measure = measureLayers
	}
	res, err := measure(w, opt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.print(os.Stdout)
	return res, nil
}

// runOne is the driver's entry: one workload, one phase, and as the last
// line of standard output one JSON object with the phase's metrics.
func runOne(name string, trace int, opt options, out string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	res, err := runPhase(w, trace, opt)
	if err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, mv := range res.Metrics {
		line.Metrics[mv.Name] = value{mv.Value, mv.Unit}
	}
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		return err
	}
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d runs failed", name, res.Failed, res.Attempted)
	}
	return nil
}

// document is the JSON form of a whole benchmark run.
type document struct {
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Seed       int64             `json:"seed"`
	LoadModel  string            `json:"load_model"`
	Results    []*workloadResult `json:"results"`
}

// runAll runs both phases of every workload in this process.
func runAll(opt options) (*document, error) {
	doc := &document{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: opt.seed, LoadModel: "closed loop, 1 client (tcp2-mix: 1 caller per rank)"}
	for i := range workloads {
		for trace := 0; trace <= 1; trace++ {
			res, err := runPhase(&workloads[i], trace, opt)
			if err != nil {
				return nil, err
			}
			doc.Results = append(doc.Results, res)
		}
	}
	return doc, nil
}

func (d *document) failed() int {
	n := 0
	for _, r := range d.Results {
		n += r.Failed
	}
	return n
}

// writeJSON prints v as indented JSON to path, or to standard output.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
