package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// manifest is BENCHMARK.json, as far as the benchmark reads it itself.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var mf manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &mf, nil
}

// selfcheckRow compares one end-to-end metric of one workload between two
// back-to-back runs of the same code.
type selfcheckRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	First    float64 `json:"first"`
	Second   float64 `json:"second"`
	Worse    float64 `json:"worse_by"` // share of the better value by which the other run is worse
	Bound    float64 `json:"bound"`
	Pass     bool    `json:"pass"`
}

// runSelfcheck runs the whole benchmark twice and checks that the two runs
// agree within the bounds of BENCHMARK.json (read from the working
// directory): the same code must not look like a regression of itself.
func runSelfcheck(opt options, commit, out string) error {
	mf, err := readManifest("BENCHMARK.json")
	if err != nil {
		return err
	}
	var docs [2]*document
	for i := range docs {
		if docs[i], err = runAll(opt); err != nil {
			return err
		}
	}
	var rows []selfcheckRow
	failed := docs[0].failed() + docs[1].failed()
	for i, first := range docs[0].Results {
		second := docs[1].Results[i]
		if first.Trace != 0 {
			continue
		}
		for _, mm := range mf.EndToEnd {
			a, b := first.get(mm.Name), second.get(mm.Name)
			row := selfcheckRow{Workload: first.Workload, Metric: mm.Name, First: a, Second: b, Bound: mm.Bound,
				Worse: max(a, b)/min(a, b) - 1}
			row.Pass = row.Worse <= mm.Bound
			if !row.Pass {
				failed++
			}
			rows = append(rows, row)
			verdict := "PASS"
			if !row.Pass {
				verdict = "FAIL"
			}
			fmt.Printf("%s %-22s %-20s first %-12.6g second %-12.6g worse by %.4f (bound %.2f)\n",
				verdict, row.Workload, row.Metric, a, b, row.Worse, mm.Bound)
		}
	}
	err = writeJSON(out, struct {
		Commit string         `json:"commit"`
		Rows   []selfcheckRow `json:"selfcheck"`
		Runs   [2]*document   `json:"runs"`
	}{commit, rows, docs})
	if err == nil && failed > 0 {
		err = fmt.Errorf("selfcheck: %d failures", failed)
	}
	return err
}
