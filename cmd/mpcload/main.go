// Command mpcload is the workload driver for the query service: it fires a
// mixed stream of scenarios — skew-free HyperCube, skewed star joins (exact
// and sampled statistics), skewed triangles, the generalized heavy/light
// pattern algorithm, skew-aware multi-round chains, self-joins, semiring
// aggregates (COUNT/SUM with pre-shuffle partial aggregation), and the
// Auto advisor — at a Service from concurrent clients, once with plan+stats
// caching disabled and once enabled, and writes a BENCH_service.json
// snapshot with throughput, speedups, latency percentiles, cache hit rates,
// and an admission-control (load shedding) probe.
//
// Every request is verified: the cached pass must produce a Report
// bit-identical (Report.Fingerprint) to the uncached pass for the same
// request — caching may move work, never accounting. The headline metric is
// the skew-aware aggregate speedup, the ratio of summed latencies over the
// skew-aware scenarios, where the service amortizes exactly the work the
// paper's algorithms recompute per query: heavy-hitter statistics (the
// sampling round), share LPs, and layout construction.
//
// With -listen and -peers the binary is instead one rank of a multi-process
// worker group: it runs the same scenario suite through the distributed
// runtime and verifies every Report against an in-process run (workerMain).
//
// Usage:
//
//	mpcload -m 120 -p 64 -requests 260 -benchjson BENCH_service.json
//	mpcload -minspeedup 2.0   # exit non-zero below 2x skew-aware speedup
//	mpcload -listen 127.0.0.1:7001 -peers 127.0.0.1:7001,127.0.0.1:7002   # one rank; also -maxrestarts, -roundtimeout, -debugaddr
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpcquery"
)

// scenario is one workload template; weight is its share of the request mix.
type scenario struct {
	name      string
	q         *mpcquery.Query // nil for self-join strategies
	db        *mpcquery.Database
	strategy  mpcquery.Strategy
	extra     []mpcquery.RunOption
	servers   int // per-scenario server budget (0 = the -p default)
	weight    int
	skewAware bool
}

func (sc *scenario) p(def int) int {
	if sc.servers > 0 {
		return sc.servers
	}
	return def
}

// request is one element of the generated stream.
type request struct {
	sc   *scenario
	seed int64
}

// ScenarioResult is the per-scenario section of BENCH_service.json.
type ScenarioResult struct {
	Name           string  `json:"name"`
	SkewAware      bool    `json:"skew_aware"`
	Requests       int     `json:"requests"`
	UncachedNs     int64   `json:"uncached_ns_total"`
	CachedNs       int64   `json:"cached_ns_total"`
	Speedup        float64 `json:"speedup"`
	ReportsMatched bool    `json:"reports_bit_identical"`
	Rounds         int     `json:"rounds"`
	MaxLoadBits    float64 `json:"max_load_bits"`
	TotalBits      float64 `json:"total_bits"`
	OutputTuples   int     `json:"output_tuples"`
}

// BenchFile is the BENCH_service.json document.
type BenchFile struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	TuplesPerM  int    `json:"m"`
	Servers     int    `json:"p"`
	Requests    int    `json:"requests"`
	Clients     int    `json:"clients"`
	Workers     int    `json:"workers"`

	UncachedWallNs       int64   `json:"uncached_wall_ns"`
	CachedWallNs         int64   `json:"cached_wall_ns"`
	UncachedThroughput   float64 `json:"uncached_throughput_per_sec"`
	CachedThroughput     float64 `json:"cached_throughput_per_sec"`
	OverallSpeedup       float64 `json:"overall_speedup"`
	SkewAwareSpeedup     float64 `json:"skewaware_speedup"`
	AllReportsIdentical  bool    `json:"all_reports_bit_identical"`
	CachedLatencyP50Ns   int64   `json:"cached_latency_p50_ns"`
	CachedLatencyP99Ns   int64   `json:"cached_latency_p99_ns"`
	UncachedLatencyP50Ns int64   `json:"uncached_latency_p50_ns"`
	UncachedLatencyP99Ns int64   `json:"uncached_latency_p99_ns"`

	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	OverloadProbeSubmitted int   `json:"overload_probe_submitted"`
	OverloadProbeShed      int64 `json:"overload_probe_shed"`

	Scenarios []ScenarioResult `json:"scenarios"`
}

func main() {
	m := flag.Int("m", 120, "tuples per relation")
	p := flag.Int("p", 64, "servers per query")
	requests := flag.Int("requests", 260, "total requests per pass")
	clients := flag.Int("clients", 0, "concurrent client goroutines (default = workers)")
	workers := flag.Int("workers", 0, "service worker pool size (default GOMAXPROCS)")
	benchjson := flag.String("benchjson", "", "write BENCH_service.json to this path")
	minSpeedup := flag.Float64("minspeedup", 0, "exit non-zero if the skew-aware speedup falls below this")
	listen := flag.String("listen", "", "worker mode: this rank's listen address (must appear in -peers)")
	peers := flag.String("peers", "", "worker mode: comma-separated addresses of every rank, in rank order")
	debugAddr := flag.String("debugaddr", "", "worker mode: serve the debug endpoint (/metrics, /debug/pprof/) on this address")
	maxRestarts := flag.Int("maxrestarts", 0,
		"worker mode: whole-suite replays allowed after a lost peer (0 = fail fast)")
	roundTimeout := flag.Duration("roundtimeout", 0,
		"worker mode: per-round delivery timeout (0 = transport default); also the restart settle delay")
	flag.Parse()

	if *m < 0 {
		usageError("-m must be non-negative, got %d", *m)
	}
	if *p < 1 {
		usageError("-p must be at least 1, got %d", *p)
	}
	if *requests < 1 {
		usageError("-requests must be at least 1, got %d", *requests)
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *clients <= 0 {
		*clients = *workers
	}

	if *listen != "" || *peers != "" {
		if *listen == "" || *peers == "" {
			usageError("worker mode needs both -listen and -peers")
		}
		os.Exit(workerMain(*listen, *peers, *m, *p, *debugAddr, *maxRestarts, *roundTimeout))
	}

	scenarios := buildScenarios(*m)
	stream := buildStream(scenarios, *requests)

	fmt.Fprintf(os.Stderr, "mpcload: %d requests over %d scenarios, m=%d p=%d, %d clients, %d workers\n",
		len(stream), len(scenarios), *m, *p, *clients, *workers)

	// Pass 1: caching disabled. Collect garbage before each measured pass
	// so one pass doesn't pay the other's GC debt.
	runtime.GC()
	// Coalescing off in both passes: the cached-vs-uncached comparison
	// measures the caches; single-flight collapsing identical in-flight
	// requests would hide exactly the work being compared
	// (BenchmarkServiceCoalescing measures coalescing itself).
	unSvc := mpcquery.NewService(
		mpcquery.WithCaching(false),
		mpcquery.WithRequestCoalescing(false),
		mpcquery.WithServiceWorkers(*workers), mpcquery.WithServiceQueue(len(stream)))
	unWall, unLat, unFPs, err := drive(unSvc, stream, *p, *clients)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpcload: uncached pass: %v\n", err)
		os.Exit(1)
	}
	unStats := unSvc.Stats()
	unSvc.Close()

	// Pass 2: caching enabled, identical stream.
	runtime.GC()
	caSvc := mpcquery.NewService(
		mpcquery.WithRequestCoalescing(false),
		mpcquery.WithServiceWorkers(*workers), mpcquery.WithServiceQueue(len(stream)))
	caWall, caLat, caFPs, err := drive(caSvc, stream, *p, *clients)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mpcload: cached pass: %v\n", err)
		os.Exit(1)
	}
	caStats := caSvc.Stats()
	caSvc.Close()

	// Verification: every cached Report bit-identical to its uncached twin.
	allIdentical := true
	matched := make(map[string]bool, len(scenarios))
	for _, sc := range scenarios {
		matched[sc.name] = true
	}
	for i := range stream {
		if unFPs[i] != caFPs[i] {
			allIdentical = false
			matched[stream[i].sc.name] = false
		}
	}

	// Aggregate per scenario and over the skew-aware subset.
	file := BenchFile{
		GeneratedAt:          time.Now().UTC().Format(time.RFC3339),
		GoVersion:            runtime.Version(),
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
		TuplesPerM:           *m,
		Servers:              *p,
		Requests:             len(stream),
		Clients:              *clients,
		Workers:              *workers,
		UncachedWallNs:       unWall.Nanoseconds(),
		CachedWallNs:         caWall.Nanoseconds(),
		UncachedThroughput:   float64(len(stream)) / unWall.Seconds(),
		CachedThroughput:     float64(len(stream)) / caWall.Seconds(),
		OverallSpeedup:       float64(unWall) / float64(caWall),
		AllReportsIdentical:  allIdentical,
		UncachedLatencyP50Ns: unStats.LatencyP50.Nanoseconds(),
		UncachedLatencyP99Ns: unStats.LatencyP99.Nanoseconds(),
		CachedLatencyP50Ns:   caStats.LatencyP50.Nanoseconds(),
		CachedLatencyP99Ns:   caStats.LatencyP99.Nanoseconds(),
		CacheHits:            caStats.Cache.Hits,
		CacheMisses:          caStats.Cache.Misses,
		CacheHitRate:         caStats.Cache.HitRate(),
	}

	var skewUn, skewCa int64
	perUn := make(map[string]int64)
	perCa := make(map[string]int64)
	perCount := make(map[string]int)
	for i, rq := range stream {
		perUn[rq.sc.name] += unLat[i].Nanoseconds()
		perCa[rq.sc.name] += caLat[i].Nanoseconds()
		perCount[rq.sc.name]++
		if rq.sc.skewAware {
			skewUn += unLat[i].Nanoseconds()
			skewCa += caLat[i].Nanoseconds()
		}
	}
	if skewCa > 0 {
		file.SkewAwareSpeedup = float64(skewUn) / float64(skewCa)
	}
	for _, sc := range scenarios {
		rep := sampleReport(sc, *p)
		res := ScenarioResult{
			Name:           sc.name,
			SkewAware:      sc.skewAware,
			Requests:       perCount[sc.name],
			UncachedNs:     perUn[sc.name],
			CachedNs:       perCa[sc.name],
			ReportsMatched: matched[sc.name],
			Rounds:         rep.Rounds,
			MaxLoadBits:    rep.MaxLoadBits,
			TotalBits:      rep.TotalBits,
			OutputTuples:   rep.Output.NumTuples(),
		}
		if perCa[sc.name] > 0 {
			res.Speedup = float64(perUn[sc.name]) / float64(perCa[sc.name])
		}
		file.Scenarios = append(file.Scenarios, res)
		fmt.Fprintf(os.Stderr, "mpcload: %-22s %3d reqs  %8.2fms -> %8.2fms  speedup %.2fx  identical=%t\n",
			sc.name, perCount[sc.name],
			float64(perUn[sc.name])/1e6, float64(perCa[sc.name])/1e6, res.Speedup, matched[sc.name])
	}

	// Admission-control probe: a deliberately tiny service under a burst
	// must shed with ErrOverloaded rather than queue without bound.
	file.OverloadProbeSubmitted, file.OverloadProbeShed = overloadProbe(scenarios[0], *p)

	fmt.Fprintf(os.Stderr,
		"mpcload: overall %.2fx (throughput %.1f -> %.1f req/s), skew-aware %.2fx, reports identical: %t, shed %d/%d in overload probe\n",
		file.OverallSpeedup, file.UncachedThroughput, file.CachedThroughput,
		file.SkewAwareSpeedup, allIdentical, file.OverloadProbeShed, file.OverloadProbeSubmitted)

	if *benchjson != "" {
		b, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "mpcload: %v\n", err)
			os.Exit(1)
		}
		b = append(b, '\n')
		if err := os.WriteFile(*benchjson, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "mpcload: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "mpcload: wrote %s\n", *benchjson)
	}

	if !allIdentical {
		fmt.Fprintln(os.Stderr, "mpcload: FAIL: cached Reports diverged from the uncached pass")
		os.Exit(1)
	}
	if file.OverloadProbeShed == 0 {
		fmt.Fprintln(os.Stderr, "mpcload: FAIL: overload probe never shed load")
		os.Exit(1)
	}
	if *minSpeedup > 0 && file.SkewAwareSpeedup < *minSpeedup {
		fmt.Fprintf(os.Stderr, "mpcload: FAIL: skew-aware speedup %.2fx below required %.2fx\n",
			file.SkewAwareSpeedup, *minSpeedup)
		os.Exit(1)
	}
}

// usageError reports a flag value mpcload cannot run with and exits 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "mpcload: "+format+"\n", args...)
	os.Exit(2)
}

// buildScenarios constructs the mixed workload. The sampled-statistics star
// joins carry the most weight: they are the paper's fully executable
// protocol (statistics gathered by a real communication round, not an
// oracle), and they are what a service amortizes best — the sampling round
// is identical across queries on the same relations.
func buildScenarios(m int) []*scenario {
	rng := rand.New(rand.NewSource(42))
	n := int64(1 << 16)

	heavyA := map[int64]int{}
	for v := int64(1); v <= 12; v++ {
		heavyA[v] = m / 8
	}
	starA := mpcquery.SkewedStarDatabase(rng, 2, m, n, heavyA)
	heavyB := map[int64]int{}
	for v := int64(100); v < 108; v++ {
		heavyB[v] = m / 6
	}
	starB := mpcquery.SkewedStarDatabase(rng, 2, m, n, heavyB)

	triSkew := mpcquery.SkewedTriangleDatabase(rng, m, n, 7, m/8)
	triMulti := multiHeavyTriangle(rng, m, n, 4, m/16)
	triFree := mpcquery.MatchingDatabase(rng, mpcquery.Triangle(), m, n)
	chainDB := mpcquery.ChainMatchingDatabase(rng, 6, m, n)

	edges := mpcquery.NewRelation("E", 2)
	for i := 0; i < m; i++ {
		edges.Append(rng.Int63n(n/256), rng.Int63n(n/256))
	}
	pathsDB := mpcquery.NewDatabase(n)
	pathsDB.Add(edges)

	return []*scenario{
		{name: "join-sampled-a", q: mpcquery.Star(2), db: starA,
			strategy: mpcquery.SkewedStarSampled(150), weight: 5, skewAware: true},
		{name: "join-sampled-b", q: mpcquery.Star(2), db: starB,
			strategy: mpcquery.SkewedStarSampled(100), weight: 4, skewAware: true},
		{name: "join-skewed", q: mpcquery.Star(2), db: starA,
			strategy: mpcquery.SkewedGeneric(), servers: 32, weight: 1, skewAware: true},
		{name: "triangle-skewed", q: mpcquery.Triangle(), db: triSkew,
			strategy: mpcquery.SkewedTriangle(), servers: 32, weight: 1, skewAware: true},
		{name: "triangle-generic", q: mpcquery.Triangle(), db: triMulti,
			strategy: mpcquery.SkewedGeneric(), servers: 32, weight: 1, skewAware: true},
		{name: "chain-skewaware", q: mpcquery.Chain(6), db: chainDB,
			strategy: mpcquery.GreedyPlan(0), servers: 32, weight: 1, skewAware: true},
		{name: "triangle-skewfree", q: mpcquery.Triangle(), db: triFree,
			strategy: mpcquery.HyperCube(), weight: 1},
		{name: "chain-auto", q: mpcquery.Chain(6), db: chainDB,
			strategy: mpcquery.Auto(), weight: 1},
		// Aggregate scenarios: the high-duplicate star COUNT (the pushdown
		// showcase) and a grouped SUM riding the same plan-cache entries as
		// the plain star runs (planning is aggregate-independent).
		{name: "star-count-agg", q: mpcquery.Star(2), db: starA,
			strategy: mpcquery.HyperCube(),
			extra:    []mpcquery.RunOption{mpcquery.WithAggregate(mpcquery.AggCount, "", "z")},
			weight:   2},
		{name: "star-sum-agg-nopush", q: mpcquery.Star(2), db: starA,
			strategy: mpcquery.HyperCube(),
			extra: []mpcquery.RunOption{
				mpcquery.WithAggregate(mpcquery.AggSum, "x2", "z"),
				mpcquery.WithAggregatePushdown(false)},
			weight: 1},
		{name: "selfjoin-paths", q: nil, db: pathsDB,
			strategy: mpcquery.SelfJoin("paths",
				mpcquery.Atom{Name: "E", Vars: []string{"x", "y"}},
				mpcquery.Atom{Name: "E", Vars: []string{"y", "z"}}),
			weight: 1},
	}
}

// multiHeavyTriangle plants h heavy values (count cnt each) in every column
// of every triangle relation, giving each variable a heavy set of ~h values
// — the workload that stresses the generalized pattern algorithm's layout.
func multiHeavyTriangle(rng *rand.Rand, m int, n int64, h, cnt int) *mpcquery.Database {
	db := mpcquery.NewDatabase(n)
	for _, name := range []string{"S1", "S2", "S3"} {
		r := mpcquery.NewRelation(name, 2)
		i := 0
		for v := 0; v < h; v++ {
			for c := 0; c < cnt && i < m; c++ {
				r.Append(int64(v+1), rng.Int63n(n))
				i++
			}
		}
		for v := 0; v < h; v++ {
			for c := 0; c < cnt && i < m; c++ {
				r.Append(rng.Int63n(n), int64(v+1))
				i++
			}
		}
		for ; i < m; i++ {
			r.Append(rng.Int63n(n), rng.Int63n(n))
		}
		db.Add(r)
	}
	return db
}

// buildStream expands scenario weights into a deterministic interleaved
// request list of the given length, cycling two hash seeds per scenario so
// the stream repeats queries the way a service sees them.
func buildStream(scenarios []*scenario, total int) []request {
	var cycle []request
	seeds := []int64{3, 17}
	for _, sc := range scenarios {
		for w := 0; w < sc.weight; w++ {
			cycle = append(cycle, request{sc: sc, seed: seeds[w%len(seeds)]})
		}
	}
	stream := make([]request, 0, total)
	for len(stream) < total {
		stream = append(stream, cycle[len(stream)%len(cycle)])
	}
	return stream
}

// drive fires the stream at the service from `clients` goroutines and
// returns the wall time, per-request latencies, and per-request Report
// fingerprints.
func drive(svc *mpcquery.Service, stream []request, p, clients int) (time.Duration, []time.Duration, []string, error) {
	lat := make([]time.Duration, len(stream))
	fps := make([]string, len(stream))
	var next atomic.Int64
	var firstErr error
	var errOnce sync.Once
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(stream) {
					return
				}
				rq := stream[i]
				opts := append([]mpcquery.RunOption{
					mpcquery.WithStrategy(rq.sc.strategy),
					mpcquery.WithServers(rq.sc.p(p)),
					mpcquery.WithSeed(rq.seed),
				}, rq.sc.extra...)
				t0 := time.Now()
				rep, err := svc.Run(context.Background(), rq.sc.q, rq.sc.db, opts...)
				lat[i] = time.Since(t0)
				if err != nil {
					errOnce.Do(func() { firstErr = fmt.Errorf("request %d (%s): %w", i, rq.sc.name, err) })
					return
				}
				fps[i] = rep.Fingerprint()
			}
		}()
	}
	wg.Wait()
	return time.Since(start), lat, fps, firstErr
}

// sampleReport runs one representative request per scenario for the JSON's
// model-cost columns (rounds, loads, output size).
func sampleReport(sc *scenario, p int) *mpcquery.Report {
	opts := append([]mpcquery.RunOption{
		mpcquery.WithStrategy(sc.strategy), mpcquery.WithServers(sc.p(p)), mpcquery.WithSeed(3),
	}, sc.extra...)
	rep, err := mpcquery.Run(sc.q, sc.db, opts...)
	if err != nil {
		panic(err)
	}
	return rep
}

// gatedStrategy parks Execute on a channel, letting the overload probe hold
// the service's single worker busy for as long as it needs.
type gatedStrategy struct {
	gate    chan struct{}
	started chan struct{}
}

func (g *gatedStrategy) Name() string { return "gated-probe" }

func (g *gatedStrategy) Execute(ctx mpcquery.ExecContext) (*mpcquery.Report, error) {
	select {
	case g.started <- struct{}{}:
	default:
	}
	<-g.gate
	return &mpcquery.Report{Strategy: g.Name(), Rounds: 1}, nil
}

// overloadProbe saturates a one-worker, queue-of-two service with a burst
// of gated requests and reports how many were shed with ErrOverloaded — the
// admission control demonstration. The gate makes the probe deterministic:
// the worker is provably busy, so once the queue fills every further
// request must be refused rather than buffered without bound.
func overloadProbe(sc *scenario, p int) (submitted int, shed int64) {
	// Coalescing off: the probe floods identical requests to fill the queue,
	// which single-flight would otherwise collapse into one execution.
	svc := mpcquery.NewService(mpcquery.WithServiceWorkers(1), mpcquery.WithServiceQueue(2),
		mpcquery.WithRequestCoalescing(false))
	defer svc.Close()
	gs := &gatedStrategy{gate: make(chan struct{}), started: make(chan struct{}, 1)}
	const burst = 32
	var count atomic.Int64
	var wg sync.WaitGroup
	launch := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := svc.Run(context.Background(), sc.q, sc.db, mpcquery.WithStrategy(gs), mpcquery.WithServers(sc.p(p))); errors.Is(err, mpcquery.ErrOverloaded) {
				count.Add(1)
			}
		}()
	}
	launch()
	<-gs.started // the single worker is now parked inside Execute
	for i := 1; i < burst; i++ {
		launch()
		if i >= 8 && count.Load() == 0 {
			// Give admitted requests a moment to occupy the queue before
			// the next attempt (Submit vs dequeue is otherwise racy).
			time.Sleep(time.Millisecond)
		}
	}
	close(gs.gate)
	wg.Wait()
	return burst, count.Load()
}
