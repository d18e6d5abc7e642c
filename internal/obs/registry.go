// Package obs is the cluster observability layer: a process-wide metrics
// registry (counters, gauges, fixed-bucket histograms), a per-run Trace
// with round/phase spans exportable as Chrome trace-event JSON, and the
// debug HTTP handler serving both.
//
// The package is stdlib-only and sits at the bottom of the dependency
// graph: engine, localjoin, service, and transport all publish into it,
// and nothing here imports back into them. Every hot-path operation
// (Counter.Add, Gauge.Add, Histogram.Observe) is a handful of atomic ops
// and allocation-free; registration (the only path that touches maps and
// locks) happens at setup time.
//
// obs legitimately reads the wall clock: trace spans and latency
// histograms are operational telemetry that never reaches a
// Report.Fingerprint(). The package is therefore on mpclint's
// nondeterminism time allowlist.
package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// NearestRank returns the 1-based nearest-rank index of quantile q over n
// ordered samples: ceil(q*n), clamped to [1, n]. The ceiling is the
// defining property of the nearest-rank method — rounding instead (the
// bug this replaces: int(q*n+0.5)-1) understates any quantile whose exact
// rank has fractional part in (0, 0.5), e.g. p54 of 10 samples, whose
// rank is ceil(5.4)=6, not round(5.4)=5.
func NearestRank(n int64, q float64) int64 {
	if n <= 0 {
		return 0
	}
	r := int64(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Counter is a monotonically increasing int64. The zero value is unusable;
// obtain counters from a Registry. All methods are safe for concurrent
// use and tolerate a nil receiver (no-op / zero), so disabled telemetry
// paths need no branching.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can be set, accumulated, or max-tracked.
// Concurrency-safe and allocation-free: the value lives as float bits in
// one atomic word.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add accumulates v into the gauge via a CAS loop.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// SetMax raises the gauge to v if v is larger.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram: ascending upper bounds plus an
// implicit +Inf overflow bucket. Observe is lock-free and allocation-free;
// exact min/max are tracked alongside the buckets so Quantile(1) and Max
// are not bucket-quantized at the top end.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is the +Inf overflow bucket
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	minBits atomic.Uint64 // float64 bits; +Inf until first observation
	maxBits atomic.Uint64 // float64 bits; -Inf until first observation
}

func newHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bucket bounds not strictly ascending at index %d", i))
		}
	}
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for ; i < len(h.bounds); i++ {
		if v <= h.bounds[i] {
			break
		}
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) {
			break
		}
		if h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Min returns the smallest observation, or 0 before any observation.
func (h *Histogram) Min() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observation, or 0 before any observation.
func (h *Histogram) Max() float64 {
	if h == nil || h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile returns the nearest-rank q-quantile as the upper bound of the
// bucket holding that rank — an over-estimate by at most one bucket
// width, clamped to the exact observed Max (a true quantile never exceeds
// the maximum, so the clamp only tightens the estimate and keeps
// Quantile(q) <= Max for every q). Samples landing in the overflow bucket
// resolve to Max directly. Returns 0 before any observation.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := NearestRank(n, q)
	var cum int64
	for i := range h.bounds {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if max := h.Max(); max < h.bounds[i] {
				return max
			}
			return h.bounds[i]
		}
	}
	return h.Max()
}

// Registry is a name-indexed set of metrics. Metric handles are
// registered once (get-or-create by name) and then operated on without
// touching the registry again, so the hot path never sees a lock.
// Registering one name as two different kinds panics.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]any // *Counter, *Gauge, *Histogram or func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that engine, localjoin, and
// transport publish into.
func Default() *Registry { return defaultRegistry }

// kindOf names a registered metric's kind.
func kindOf(m any) string {
	switch m.(type) {
	case *Counter:
		return "counter"
	case *Gauge:
		return "gauge"
	case *Histogram:
		return "histogram"
	}
	return "gaugefunc"
}

// register returns the metric of type M registered under name, creating
// it with mk if the name is free. A name held by another kind panics.
func register[M any](r *Registry, name, kind string, mk func() M) M {
	r.mu.RLock()
	m, ok := r.metrics[name].(M)
	r.mu.RUnlock()
	if ok {
		return m
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.metrics[name]
	if m, ok := old.(M); ok {
		return m
	}
	if old != nil {
		panic(fmt.Sprintf("obs: metric %q already registered as %s, requested as %s", name, kindOf(old), kind))
	}
	m = mk()
	r.metrics[name] = m
	return m
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	return register(r, name, "counter", func() *Counter { return &Counter{} })
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	return register(r, name, "gauge", func() *Gauge { return &Gauge{} })
}

// Histogram returns the histogram registered under name, creating it with
// the given ascending bucket upper bounds if needed. Re-registering an
// existing histogram with different bounds panics.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	h := register(r, name, "histogram", func() *Histogram { return newHistogram(bounds) })
	if !slices.Equal(h.bounds, bounds) {
		panic(fmt.Sprintf("obs: histogram %q re-registered with different bucket bounds", name))
	}
	return h
}

// GaugeFunc registers a callback gauge evaluated at export time —
// suitable for values another subsystem already tracks (pool depth, cache
// size). Re-registering a name replaces the callback.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	if f == nil {
		panic("obs: nil GaugeFunc callback")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.metrics[name]; old != nil {
		if _, ok := old.(func() float64); !ok {
			panic(fmt.Sprintf("obs: metric %q already registered as %s, requested as gaugefunc", name, kindOf(old)))
		}
	}
	r.metrics[name] = f
}

// formatFloat renders a metric value the way the Prometheus text
// exposition expects (shortest round-trip decimal).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format, sorted by name (map iteration order never reaches the output).
func (r *Registry) WritePrometheus(w io.Writer) error {
	type entry struct {
		name string
		kind string
		c    *Counter
		g    *Gauge
		h    *Histogram
		f    func() float64
	}
	var entries []entry
	r.mu.RLock()
	for name, m := range r.metrics {
		e := entry{name: name, kind: kindOf(m)}
		switch m := m.(type) {
		case *Counter:
			e.c = m
		case *Gauge:
			e.g = m
		case *Histogram:
			e.h = m
		case func() float64:
			e.kind, e.f = "gauge", m
		}
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	for _, e := range entries {
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.kind); err != nil {
			return err
		}
		var err error
		switch {
		case e.c != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", e.name, e.c.Value())
		case e.g != nil:
			_, err = fmt.Fprintf(w, "%s %s\n", e.name, formatFloat(e.g.Value()))
		case e.f != nil:
			_, err = fmt.Fprintf(w, "%s %s\n", e.name, formatFloat(e.f()))
		case e.h != nil:
			var cum int64
			for i, b := range e.h.bounds {
				cum += e.h.buckets[i].Load()
				if _, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", e.name, formatFloat(b), cum); err != nil {
					return err
				}
			}
			cum += e.h.buckets[len(e.h.bounds)].Load()
			if _, err = fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", e.name, cum); err != nil {
				return err
			}
			if _, err = fmt.Fprintf(w, "%s_sum %s\n", e.name, formatFloat(e.h.Sum())); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s_count %d\n", e.name, e.h.Count())
		}
		if err != nil {
			return err
		}
	}
	return nil
}
