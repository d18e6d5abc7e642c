package main

import (
	"fmt"
	"io"
	"slices"
)

// metricDef names one metric and its unit. The two lists below are the
// benchmark's contract; BENCHMARK.json repeats them and the smoke test fails
// when they drift apart.
type metricDef struct {
	name, unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"run_ms", "ms"},
	{"run_p90_over_p50", "ratio"},
	{"tuples_per_s", "tuples/s"},
	{"bits_per_input_bit", "ratio"},
	{"load_over_ideal", "ratio"},
	{"peak_buffered_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"query.parse_us", "us"},
	{"packing.share_lp_us", "us"},
	{"packing.lower_bound_us", "us"},
	{"core.plan_ms", "ms"},
	{"core.execute_ms", "ms"},
	{"core.plan_share", "ratio"},
	{"core.load_over_lb", "ratio"},
	{"skew.prepare_ms", "ms"},
	{"skew.stats_round_ms", "ms"},
	{"skew.execute_ms", "ms"},
	{"skew.prepare_share", "ratio"},
	{"skew.heavy_hitters", "count"},
	{"skew.servers_used", "count"},
	{"multiround.plan_us", "us"},
	{"multiround.execute_ms", "ms"},
	{"multiround.rounds", "count"},
	{"advisor.advise_ms", "ms"},
	{"hashing.route_ns_per_tuple", "ns"},
	{"engine.emit_busy_ms", "ms"},
	{"engine.deliver_busy_ms", "ms"},
	{"engine.emit_skew", "ratio"},
	{"engine.rounds", "count"},
	{"engine.recv_tuples", "count"},
	{"engine.chunk_flushes", "count"},
	{"engine.round_ns_per_tuple", "ns"},
	{"engine.round_batch_ns_per_tuple", "ns"},
	{"localjoin.compute_busy_ms", "ms"},
	{"localjoin.cache_hit_rate", "ratio"},
	{"localjoin.seq_eval_ms", "ms"},
	{"localjoin.stream_eval_ms", "ms"},
	{"localjoin.aggregate_eval_ms", "ms"},
	{"aggregate.bits_saved_frac", "ratio"},
	{"transport.wire_bytes_per_billed_byte", "ratio"},
	{"transport.data_frames_per_run", "count"},
	{"transport.ctrl_frames_per_run", "count"},
	{"transport.resends", "count"},
	{"transport.round_ns_per_tuple", "ns"},
	{"transport.tcp_over_inproc", "ratio"},
	{"root.run_ms", "ms"},
	{"root.run_p90_ms", "ms"},
	{"root.plan_ms", "ms"},
	{"root.other_ms", "ms"},
	{"obs.trace_overhead_frac", "ratio"},
	{"process.peak_rss_mb", "MB"},
	{"process.alloc_bytes_per_tuple", "B"},
	{"process.gomaxprocs1_ratio", "ratio"},
}

// metricValue is one reported number.
type metricValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// queryStat is the timing distribution of one query of the list.
type queryStat struct {
	Query    string  `json:"query"`
	Samples  int     `json:"samples"`
	MedianMS float64 `json:"median_ms"`
	Q1MS     float64 `json:"q1_ms"`
	Q3MS     float64 `json:"q3_ms"`
	P90MS    float64 `json:"p90_ms"`
}

// workloadResult is everything one phase of one workload reports.
type workloadResult struct {
	Workload  string        `json:"workload"`
	Why       string        `json:"why"`
	M         int           `json:"m"`
	Trace     int           `json:"trace"` // 0: measured phase, 1: traced phase
	Passes    int           `json:"passes"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Metrics   []metricValue `json:"metrics"`
	Queries   []queryStat   `json:"queries"`

	// Calibration is what the measured phase scaled its timings by; a timing
	// as the wall clock read it is the reported one × measured ÷ nominal. The
	// per-query statistics above are wall-clock readings.
	Calibration *calibration `json:"calibration,omitempty"`

	defs []metricDef
}

// calibration records the calibration kernel's median sample next to the
// set-ups and next to the passes, in ms.
type calibration struct {
	NominalMS float64 `json:"nominal_ms"`
	SetupMS   float64 `json:"setup_ms"`
	RunMS     float64 `json:"run_ms"`
}

// result starts the report of a phase: counts and per-query distributions.
func (b *bench) result(m, trace int, st *passStats) *workloadResult {
	res := &workloadResult{Workload: b.w.name, Why: b.w.why, M: m, Trace: trace, Passes: st.passes,
		Attempted: b.attempted, Failed: b.failed, defs: endToEndMetrics}
	if trace == 1 {
		res.defs = perLayerMetrics
	}
	for i, xs := range st.perQuery {
		res.Queries = append(res.Queries, queryStat{Query: b.items[i].name, Samples: len(xs),
			MedianMS: median(xs), Q1MS: quantile(xs, 0.25), Q3MS: quantile(xs, 0.75), P90MS: quantile(xs, 0.9)})
	}
	return res
}

// setAll records the phase's metrics in their defined order. A metric without
// a value reads 0 (its module did not run); a value without a defined metric
// is a bug of the benchmark.
func (r *workloadResult) setAll(vals map[string]float64) {
	for _, d := range r.defs {
		r.Metrics = append(r.Metrics, metricValue{Name: d.name, Value: vals[d.name], Unit: d.unit})
	}
	for name := range vals {
		if !slices.ContainsFunc(r.defs, func(d metricDef) bool { return d.name == name }) {
			panic("benchmark: undefined metric " + name)
		}
	}
}

func (r *workloadResult) get(name string) float64 {
	for _, mv := range r.Metrics {
		if mv.Name == name {
			return mv.Value
		}
	}
	return 0
}

// print writes one line per metric: workload metric value unit.
func (r *workloadResult) print(w io.Writer) {
	for _, mv := range r.Metrics {
		fmt.Fprintf(w, "%s %s %.6g %s\n", r.Workload, mv.Name, mv.Value, mv.Unit)
	}
	if r.Trace == 0 {
		fmt.Fprintf(w, "%s failed_frac %.6g ratio\n", r.Workload, ratio(float64(r.Failed), float64(r.Attempted)))
		fmt.Fprintf(w, "%s calibration_ms %.6g ms\n", r.Workload, r.Calibration.RunMS)
	}
}
