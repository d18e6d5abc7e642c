package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNearestRankCeiling(t *testing.T) {
	// The defining cases of the ceiling rule, including the exact bug this
	// fixed: the old int(q*n+0.5)-1 rounded, so p54 of 10 samples landed on
	// rank 5 instead of ceil(5.4) = 6.
	cases := []struct {
		n    int64
		q    float64
		want int64
	}{
		{10, 0.54, 6}, // the motivating bug: round(5.4+0.5)=5, ceiling=6
		{10, 0.50, 5},
		{10, 0.95, 10},
		{10, 0.99, 10},
		{101, 0.50, 51},
		{101, 0.99, 100},
		{1, 0.50, 1},
		{5, 1.0, 5},
		{5, 0.0, 1},  // clamped low
		{5, -0.5, 1}, // clamped low
		{5, 1.5, 5},  // clamped high
		{0, 0.5, 0},  // no samples
	}
	for _, c := range cases {
		if got := NearestRank(c.n, c.q); got != c.want {
			t.Errorf("NearestRank(%d, %v) = %d, want %d", c.n, c.q, got, c.want)
		}
	}
}

// TestHistogramQuantilesHandComputed pins p50/p95/p99 on hand-computed
// samples: each sample sits in its own bucket, so the nearest-rank bucket
// upper bound is exactly the nearest-rank sample and the expected values
// can be read off the sorted list directly.
func TestHistogramQuantilesHandComputed(t *testing.T) {
	// Buckets at 1..10: sample i lands exactly in bucket "le=i".
	bounds := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		name             string
		samples          []float64
		p50, p95, p99    float64
		p54              float64 // the regression case from the old rounding bug
		max              float64
		wantCount        int64
		wantSum, wantMin float64
	}{
		{
			// 10 distinct samples 1..10. Ranks: p50=ceil(5)=5 → 5;
			// p54=ceil(5.4)=6 → 6 (the old code returned sample 5);
			// p95=ceil(9.5)=10 → 10; p99=ceil(9.9)=10 → 10.
			name:    "ten-distinct",
			samples: []float64{10, 3, 7, 1, 9, 5, 2, 8, 4, 6},
			p50:     5, p54: 6, p95: 10, p99: 10,
			max: 10, wantCount: 10, wantSum: 55, wantMin: 1,
		},
		{
			// 20 samples: 1..10 each twice. p50=ceil(10)=10th → 5;
			// p54=ceil(10.8)=11th → 6; p95=ceil(19)=19th → 10;
			// p99=ceil(19.8)=20th → 10.
			name:    "ten-doubled",
			samples: []float64{1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10},
			p50:     5, p54: 6, p95: 10, p99: 10,
			max: 10, wantCount: 20, wantSum: 110, wantMin: 1,
		},
		{
			// Skewed: nineteen 1s and one 10. p50..p95=ceil(19)=19th → 1;
			// p99=ceil(19.8)=20th → 10.
			name:    "skewed-tail",
			samples: append(repeat(1, 19), 10),
			p50:     1, p54: 1, p95: 1, p99: 10,
			max: 10, wantCount: 20, wantSum: 29, wantMin: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHistogram(bounds)
			for _, s := range c.samples {
				h.Observe(s)
			}
			for _, pq := range []struct {
				q    float64
				want float64
			}{{0.50, c.p50}, {0.54, c.p54}, {0.95, c.p95}, {0.99, c.p99}} {
				if got := h.Quantile(pq.q); got != pq.want {
					t.Errorf("Quantile(%v) = %v, want %v", pq.q, got, pq.want)
				}
			}
			if h.Count() != c.wantCount || h.Sum() != c.wantSum || h.Min() != c.wantMin || h.Max() != c.max {
				t.Errorf("count/sum/min/max = %d/%v/%v/%v, want %d/%v/%v/%v",
					h.Count(), h.Sum(), h.Min(), h.Max(), c.wantCount, c.wantSum, c.wantMin, c.max)
			}
		})
	}
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestHistogramOverflowResolvesToMax(t *testing.T) {
	h := newHistogram([]float64{1, 2})
	h.Observe(0.5)
	h.Observe(7.25) // overflow bucket
	if got := h.Quantile(1.0); got != 7.25 {
		t.Fatalf("Quantile(1.0) = %v, want exact max 7.25", got)
	}
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("Quantile(0.5) = %v, want bucket bound 1", got)
	}
}

// TestHistogramQuantileClampedToMax: a quantile never exceeds the largest
// observation, so when nearest-rank lands in a bucket whose upper bound is
// above the exact Max, the bound is clamped to Max. This keeps
// Quantile(q) <= Max for every q — the invariant service Snapshot consumers
// rely on (p50 must not exceed the reported maximum latency).
func TestHistogramQuantileClampedToMax(t *testing.T) {
	h := newHistogram([]float64{1, 10})
	h.Observe(7) // lands in the le=10 bucket; max is 7, below the bound
	if got := h.Quantile(0.5); got != 7 {
		t.Fatalf("Quantile(0.5) = %v, want exact max 7 (clamped from bound 10)", got)
	}
	h.Observe(0.5) // le=1 bucket bound is below max: no clamp there
	if got := h.Quantile(0.25); got != 1 {
		t.Fatalf("Quantile(0.25) = %v, want bucket bound 1", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := newHistogram([]float64{1})
	if h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
}

func TestRegistryKinds(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a_total")
	c.Inc()
	c.Add(2)
	if r.Counter("a_total") != c || c.Value() != 3 {
		t.Fatalf("counter identity or value wrong: %d", c.Value())
	}
	g := r.Gauge("b")
	g.Add(1.5)
	g.Add(0.5)
	g.SetMax(1.0) // lower: no-op
	if g.Value() != 2.0 {
		t.Fatalf("gauge = %v, want 2.0", g.Value())
	}
	g.SetMax(3.0)
	if g.Value() != 3.0 {
		t.Fatalf("gauge after SetMax = %v, want 3.0", g.Value())
	}
	h := r.Histogram("c", 1, 2, 3)
	if r.Histogram("c", 1, 2, 3) != h {
		t.Fatal("histogram not memoized")
	}
	r.GaugeFunc("d", func() float64 { return 42 })

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("cross-kind registration must panic")
			}
		}()
		r.Gauge("a_total")
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("histogram bound mismatch must panic")
			}
		}()
		r.Histogram("c", 1, 2, 4)
	}()
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Add(1)
	c.Inc()
	g.Add(1)
	g.SetMax(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil handles must read as zero")
	}
}

func TestWritePrometheusSortedAndWellFormed(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total").Add(7)
	r.Gauge("aa_gauge").Add(1.25)
	h := r.Histogram("mm_seconds", 0.1, 1)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	r.GaugeFunc("ff_func", func() float64 { return 9 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Names appear in sorted order regardless of shard/map iteration.
	idx := func(s string) int { return strings.Index(out, "# TYPE "+s) }
	if !(idx("aa_gauge") < idx("ff_func") && idx("ff_func") < idx("mm_seconds") && idx("mm_seconds") < idx("zz_total")) {
		t.Fatalf("metrics not sorted by name:\n%s", out)
	}
	for _, want := range []string{
		"zz_total 7\n",
		"aa_gauge 1.25\n",
		"ff_func 9\n",
		`mm_seconds_bucket{le="0.1"} 1`,
		`mm_seconds_bucket{le="1"} 2`,
		`mm_seconds_bucket{le="+Inf"} 3`,
		"mm_seconds_sum 5.55\n",
		"mm_seconds_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Deterministic output on repeated export.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Fatal("repeated export differs")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("shared_total").Inc()
				r.Gauge("shared_gauge").Add(1)
				r.Gauge("shared_max").SetMax(float64(i))
				r.Histogram("shared_hist", 100, 500, 1000).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("shared_gauge").Value(); got != 8000 {
		t.Fatalf("gauge add = %v, want 8000", got)
	}
	if got := r.Gauge("shared_max").Value(); got != 999 {
		t.Fatalf("gauge max = %v, want 999", got)
	}
	h := r.Histogram("shared_hist", 100, 500, 1000)
	if h.Count() != 8000 || h.Min() != 0 || h.Max() != 999 {
		t.Fatalf("histogram count/min/max = %d/%v/%v", h.Count(), h.Min(), h.Max())
	}
	wantSum := 8 * (999.0 * 1000.0 / 2.0)
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", h.Sum(), wantSum)
	}
}

func TestHistogramObserveAllocationFree(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	c := &Counter{}
	g := &Gauge{}
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(42)
		c.Inc()
		g.Add(1)
	})
	if allocs != 0 {
		t.Fatalf("hot path allocates %v per op, want 0", allocs)
	}
}
