package service

import (
	"time"

	"mpcquery/internal/obs"
)

// latencyBuckets are the upper bounds, in seconds, of the service latency
// histogram: a coarse exponential ladder from 100µs to 60s. Quantiles are
// resolved to a bucket bound (nearest-rank over the bucket counts), so the
// ladder's resolution is the quantile's resolution; the maximum is exact.
var latencyBuckets = []float64{
	100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3,
	1, 2.5, 5, 10, 30, 60,
}

// Metrics aggregates what the service observed across all completed
// queries: counts, wall-clock latency (queue wait + execution), and the
// paper's communication measures summed/maxed over the stream.
//
// Internally every series lives in a per-service obs.Registry, so the
// same numbers that feed Snapshot are exported verbatim on the debug
// endpoint's /metrics page. The registry's hot path is allocation-free;
// recording a request takes a handful of atomic operations.
type Metrics struct {
	reg     *obs.Registry
	started time.Time

	completed   *obs.Counter
	failed      *obs.Counter
	shed        *obs.Counter
	totalRounds *obs.Counter
	totalBits   *obs.Gauge
	maxLoadBits *obs.Gauge
	latency     *obs.Histogram
}

// NewMetrics returns a recorder; throughput is measured from now.
func NewMetrics() *Metrics {
	reg := obs.NewRegistry()
	return &Metrics{
		reg:         reg,
		started:     time.Now(),
		completed:   reg.Counter("mpc_service_requests_completed_total"),
		failed:      reg.Counter("mpc_service_requests_failed_total"),
		shed:        reg.Counter("mpc_service_requests_shed_total"),
		totalRounds: reg.Counter("mpc_service_rounds_total"),
		totalBits:   reg.Gauge("mpc_service_total_bits"),
		maxLoadBits: reg.Gauge("mpc_service_max_load_bits"),
		latency:     reg.Histogram("mpc_service_latency_seconds", latencyBuckets...),
	}
}

// Registry exposes the recorder's series for the debug endpoint; the
// Service also registers its pool/cache gauges here.
func (m *Metrics) Registry() *obs.Registry { return m.reg }

// Now stamps a request's arrival, for Since to measure its latency from.
// The service's request latency is read from this clock only.
func (m *Metrics) Now() time.Time { return time.Now() }

// Since returns the latency of a request that arrived at start, a stamp
// Now returned.
func (m *Metrics) Since(start time.Time) time.Duration { return time.Since(start) }

// RecordSuccess records one completed query.
func (m *Metrics) RecordSuccess(latency time.Duration, totalBits, maxLoadBits float64, rounds int) {
	m.completed.Inc()
	m.latency.Observe(latency.Seconds())
	m.totalBits.Add(totalBits)
	m.maxLoadBits.SetMax(maxLoadBits)
	m.totalRounds.Add(int64(rounds))
}

// RecordFailure records a query that returned an error.
func (m *Metrics) RecordFailure(latency time.Duration) {
	m.failed.Inc()
	m.latency.Observe(latency.Seconds())
}

// RecordShed records a request refused at admission.
func (m *Metrics) RecordShed() {
	m.shed.Inc()
}

// Summary is a point-in-time snapshot of the service's aggregate metrics.
type Summary struct {
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Shed      int64 `json:"shed"`

	Uptime     time.Duration `json:"uptime_ns"`
	Throughput float64       `json:"throughput_per_sec"` // completed / uptime

	LatencyP50 time.Duration `json:"latency_p50_ns"`
	LatencyP95 time.Duration `json:"latency_p95_ns"`
	LatencyP99 time.Duration `json:"latency_p99_ns"`
	LatencyMax time.Duration `json:"latency_max_ns"`

	TotalBits   float64 `json:"total_bits"`    // Σ communication over all queries
	MaxLoadBits float64 `json:"max_load_bits"` // worst per-server load seen
	TotalRounds int64   `json:"total_rounds"`
}

// Snapshot computes the summary over everything recorded so far. The
// latency percentiles are nearest-rank over the histogram's buckets
// (resolved to the bucket's upper bound); the maximum is exact.
func (m *Metrics) Snapshot() Summary {
	s := Summary{
		Completed:   m.completed.Value(),
		Failed:      m.failed.Value(),
		Shed:        m.shed.Value(),
		Uptime:      time.Since(m.started),
		TotalBits:   m.totalBits.Value(),
		MaxLoadBits: m.maxLoadBits.Value(),
		TotalRounds: m.totalRounds.Value(),
	}
	if secs := s.Uptime.Seconds(); secs > 0 {
		s.Throughput = float64(s.Completed) / secs
	}
	if m.latency.Count() > 0 {
		s.LatencyP50 = secondsToDuration(m.latency.Quantile(0.50))
		s.LatencyP95 = secondsToDuration(m.latency.Quantile(0.95))
		s.LatencyP99 = secondsToDuration(m.latency.Quantile(0.99))
		s.LatencyMax = secondsToDuration(m.latency.Max())
	}
	return s
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
