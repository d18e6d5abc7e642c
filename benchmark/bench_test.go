package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs both phases of every workload on tiny inputs and checks the
// output contract: every metric BENCHMARK.json names is printed exactly once
// per workload with its unit, nothing fails, and the driver's metric and
// workload lists are the ones BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	mf, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	traceDir = t.TempDir()

	sameNames := func(what string, declared []manifestMetric, defs []metricDef) {
		t.Helper()
		if len(declared) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the driver %d", what, len(declared), len(defs))
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the driver %s (%s)",
					what, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	sameNames("end_to_end", mf.EndToEnd, endToEndMetrics)
	sameNames("per_layer", mf.PerLayer, perLayerMetrics)
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(mf.Workloads), len(workloads))
	}

	validName := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	opt := options{seed: 1, passes: 2, m: 500}
	for i := range workloads {
		w := &workloads[i]
		if mf.Workloads[i].Name != w.name || !validName.MatchString(w.name) {
			t.Errorf("workload %d: BENCHMARK.json has %q, the driver %q", i, mf.Workloads[i].Name, w.name)
		}
		for trace, phase := range []struct {
			measure func(*workload, options) (*workloadResult, error)
			defs    []metricDef
		}{{measureEndToEnd, endToEndMetrics}, {measureLayers, perLayerMetrics}} {
			res, err := phase.measure(w, opt)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: %d of %d runs failed", w.name, trace, res.Failed, res.Attempted)
			}
			var out bytes.Buffer
			res.print(&out)
			for _, d := range phase.defs {
				if !validName.MatchString(d.name) {
					t.Errorf("metric name %q is not a valid name", d.name)
				}
				printed := 0
				for _, line := range strings.Split(out.String(), "\n") {
					f := strings.Fields(line)
					if len(f) == 4 && f[0] == w.name && f[1] == d.name && f[3] == d.unit {
						printed++
					}
				}
				if printed != 1 {
					t.Errorf("%s trace %d: %s printed %d times with unit %s", w.name, trace, d.name, printed, d.unit)
				}
			}
		}
	}
}
