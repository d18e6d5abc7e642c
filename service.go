package mpcquery

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mpcquery/internal/engine"
	"mpcquery/internal/obs"
	"mpcquery/internal/service"
)

// Service errors; test with errors.Is.
var (
	// ErrOverloaded: the request was refused at admission because the
	// service's queue is full — the caller should back off and retry.
	ErrOverloaded = service.ErrOverloaded
	// ErrServiceClosed: the request arrived after Close.
	ErrServiceClosed = service.ErrClosed
)

// Service turns the one-shot Run path into a long-lived, concurrency-safe
// query service that amortizes planning and statistics work across a query
// stream:
//
//   - one cache, keyed by Query.ShapeKey() plus a database fingerprint,
//     memoizes HyperCube share allocations (the LP solutions), skew-aware
//     layouts (heavy-hitter blocks, pattern grids), multi-round plan trees,
//     the Auto advisor's option enumeration, and the results of statistics
//     protocols that cost genuine communication (the sampling round of
//     SkewedStarSampled). A statistics hit skips the recomputation but every
//     Report still charges the protocol's bits, so cached and uncached runs
//     are bit-identical — the paper's cost model meters the algorithm, not
//     the memoization;
//   - admission control: a bounded worker pool with a queue-depth limit
//     sheds load (ErrOverloaded) instead of building an unbounded backlog;
//   - aggregate metrics: throughput, latency percentiles, total
//     communication across the stream, cache hit rates.
//
// All methods are safe for concurrent use. A zero Service is not valid; use
// NewService.
//
//	svc := mpcquery.NewService(mpcquery.WithServiceWorkers(8))
//	defer svc.Close()
//	rep, err := svc.Run(ctx, q, db, mpcquery.WithStrategy(mpcquery.SkewedGeneric()))
type Service struct {
	pool    *service.Pool
	metrics *service.Metrics
	cache   *service.Cache
	cacheOn bool

	flight     *service.Cache // keeps nothing: coalesces in-flight requests only
	coalesceOn bool

	breakerOn        bool // WithCircuitBreaker enabled
	breakerThreshold int
	breakerCooldown  time.Duration
	brMu             sync.Mutex
	breakers         map[engine.Transport]*service.Breaker // one per distributed runtime
	degraded         atomic.Int64                          // requests answered by the in-process fallback

	debugLn  net.Listener // nil = no debug listener
	debugSrv *http.Server

	mu      sync.Mutex
	dbs     map[*Database]*dbEntry
	dbOrder []*Database // registration order, for bounded tracking
	nextID  int64
}

// maxTrackedDatabases bounds the database-identity map: a long-lived
// service streaming over many short-lived databases must not pin them (and
// their relations) forever. Beyond the bound the oldest registration is
// forgotten and its cache entries purged; re-serving that database simply
// re-registers it under a fresh id (a cache miss, never a stale hit).
const maxTrackedDatabases = 1024

// cacheCapacity bounds the entry count of the artifact cache: room for
// 1 024 plans and 1 024 statistics results.
const cacheCapacity = 2 * 1024

// dbEntry tracks the identity and version of a registered database; the
// version is bumped by InvalidateDatabase so stale cache entries become
// unreachable.
type dbEntry struct {
	id      int64
	version int64
}

// serviceConfig collects the NewService knobs.
type serviceConfig struct {
	workers       int
	queueDepth    int
	caching       bool
	coalescing    bool
	debugAddr     string
	breakerThresh int
	breakerCool   time.Duration
}

// ServiceOption configures NewService.
type ServiceOption func(*serviceConfig)

// WithServiceWorkers sets how many queries may execute concurrently
// (default GOMAXPROCS). Each query already parallelizes internally across
// cores, so the default slightly oversubscribes to hide per-query serial
// phases.
func WithServiceWorkers(n int) ServiceOption { return func(c *serviceConfig) { c.workers = n } }

// WithServiceQueue sets the admission queue depth (default 8× workers).
// Requests beyond workers+queue are shed with ErrOverloaded.
func WithServiceQueue(n int) ServiceOption { return func(c *serviceConfig) { c.queueDepth = n } }

// WithCaching toggles the artifact cache of plans and statistics (default
// on). Off, every request plans and samples afresh — the Report is the same
// either way.
func WithCaching(on bool) ServiceOption { return func(c *serviceConfig) { c.caching = on } }

// WithRequestCoalescing toggles single-flight request coalescing (default
// on): while one request executes, concurrent requests that are
// byte-for-byte identical — same strategy, options, query, and database —
// wait for its result instead of executing again, and all callers receive
// the same Report (treat it as read-only). Sound because identical
// requests are deterministic: the coalesced Report is bit-identical to
// what a separate execution would have produced. Requests that carry a
// DistributedRuntime are never coalesced — every rank of an SPMD group
// must execute every run, so skipping one rank's execution would desync
// the group. Requests carrying a WithTrace trace, a WithOutputSink sink or a
// WithFaultInjection schedule are never coalesced either: the trace and the
// sink only see runs that actually execute, and a faulted run's error is
// its own, not a plain caller's.
func WithRequestCoalescing(on bool) ServiceOption {
	return func(c *serviceConfig) { c.coalescing = on }
}

// WithCircuitBreaker guards every distributed runtime the service's
// requests carry with a circuit breaker: threshold consecutive
// ErrPeerUnavailable failures trip it, and while it is open the service
// answers those requests from the in-process runtime instead of queuing
// them on a dead worker group — the Report is identical (the in-process
// path is the reference semantics) and carries Degraded=true so callers
// can see the downgrade. After cooldown (jittered deterministically per
// trip) a single probe request is allowed through distributed; its
// success closes the breaker. threshold < 1 is clamped to 1, cooldown
// <= 0 defaults to one second; the zero serviceConfig leaves breaking
// off entirely (distributed failures surface as errors, as before).
//
// Note the SPMD caveat: a degraded rank executes locally while its run
// is no longer mirrored on the (failed) peers. That is the point — the
// worker group is already broken when the breaker trips — but it means
// degradation is for service tiers answering callers, not for mid-group
// coordination.
func WithCircuitBreaker(threshold int, cooldown time.Duration) ServiceOption {
	return func(c *serviceConfig) { c.breakerThresh, c.breakerCool = threshold, cooldown }
}

// WithDebugListener serves the service's debug endpoint on addr:
// /metrics (Prometheus text: the service's own series plus the
// process-wide engine/kernel/transport registry), /debug/stats
// (ServiceStats as JSON), and /debug/pprof/. Use "127.0.0.1:0" to bind an
// ephemeral local port and read it back with DebugAddr. A failure to bind
// leaves the service fully functional with no listener (DebugAddr returns
// ""). The listener shuts down with Close.
func WithDebugListener(addr string) ServiceOption {
	return func(c *serviceConfig) { c.debugAddr = addr }
}

// NewService starts a query service. Close it when done to release the
// worker goroutines.
func NewService(opts ...ServiceOption) *Service {
	cfg := serviceConfig{
		workers:    runtime.GOMAXPROCS(0),
		caching:    true,
		coalescing: true,
	}
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.queueDepth <= 0 {
		cfg.queueDepth = 8 * cfg.workers
	}
	s := &Service{
		pool:       service.NewPool(cfg.workers, cfg.queueDepth),
		metrics:    service.NewMetrics(),
		cache:      service.NewCache(cacheCapacity),
		cacheOn:    cfg.caching,
		flight:     service.NewCache(0),
		coalesceOn: cfg.coalescing,
		dbs:        make(map[*Database]*dbEntry),
	}
	if cfg.breakerThresh > 0 || cfg.breakerCool > 0 {
		s.breakerOn = true
		s.breakerThreshold = cfg.breakerThresh
		s.breakerCooldown = cfg.breakerCool
		s.breakers = make(map[engine.Transport]*service.Breaker)
	}
	// Pool and cache state is computed on demand, so it publishes as gauge
	// functions sampled at scrape time rather than stored series.
	reg := s.metrics.Registry()
	reg.GaugeFunc("mpc_service_pool_workers", func() float64 { return float64(s.pool.Workers()) })
	reg.GaugeFunc("mpc_service_pool_queue_depth", func() float64 { return float64(s.pool.QueueDepth()) })
	reg.GaugeFunc("mpc_service_pool_queued", func() float64 { return float64(s.pool.Queued()) })
	reg.GaugeFunc("mpc_service_cache_hits", func() float64 { return float64(s.cache.Stats().Hits) })
	reg.GaugeFunc("mpc_service_cache_misses", func() float64 { return float64(s.cache.Stats().Misses) })
	reg.GaugeFunc("mpc_service_cache_entries", func() float64 { return float64(s.cache.Stats().Entries) })
	reg.GaugeFunc("mpc_service_coalesced_requests", func() float64 { return float64(s.flight.Stats().Hits) })
	if s.breakerOn {
		// Worst state across the guarded runtimes: 0 closed, 1 half-open,
		// 2 open — an alerting threshold of >= 2 means "degrading now".
		reg.GaugeFunc("mpc_circuit_state", func() float64 { return float64(s.breakerState()) })
		reg.GaugeFunc("mpc_service_degraded_requests", func() float64 { return float64(s.degraded.Load()) })
	}
	if cfg.debugAddr != "" {
		s.startDebug(cfg.debugAddr)
	}
	return s
}

// startDebug binds the debug listener and serves the endpoint on it. Bind
// failure is not fatal: the service runs without a listener and DebugAddr
// reports "".
func (s *Service) startDebug(addr string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return
	}
	mux := http.NewServeMux()
	mux.Handle("/", obs.Handler(nil, s.metrics.Registry(), obs.Default()))
	mux.HandleFunc("/debug/stats", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s.Stats()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	s.debugLn = ln
	s.debugSrv = &http.Server{Handler: mux}
	go s.debugSrv.Serve(ln)
}

// DebugAddr returns the bound address of the debug listener (see
// WithDebugListener), or "" when none is serving.
func (s *Service) DebugAddr() string {
	if s.debugLn == nil {
		return ""
	}
	return s.debugLn.Addr().String()
}

// Run executes one query through the service: its options are resolved
// once (a panicking option comes back as an error), the request is admitted
// to the bounded worker pool (or shed with ErrOverloaded), executed by Run's
// executor with the service's cache attached, and recorded in the aggregate
// metrics. The returned Report is bit-identical to what a plain Run of the
// same request would produce, whether or not any cache was hit.
//
// ctx bounds the request's whole lifetime, queue wait included: when it is
// canceled before execution starts, the queued work is abandoned; when it
// is canceled mid-execution, Run returns immediately with ctx.Err() and
// the execution's result is discarded on completion. A nil ctx means
// context.Background().
//
// Concurrent identical requests are coalesced onto one execution by
// default — see WithRequestCoalescing.
func (s *Service) Run(ctx context.Context, q *Query, db *Database, opts ...RunOption) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("mpcquery: service request canceled: %w", err)
	}
	cfg, perr := resolveOpts(opts)
	if perr != nil {
		s.metrics.RecordFailure(0)
		return nil, perr
	}
	cfg.cache = s.execCacheFor(db)
	// The request deadline bounds the run: a distributed round waiting on a
	// wedged peer fails with ctx's error instead of holding a worker for the
	// full RoundTimeout. A request's own WithContext wins.
	if cfg.ctx == nil {
		cfg.ctx = ctx
	}
	// Only plain requests coalesce. In an SPMD group every rank must execute
	// every run, so a request carrying a DistributedRuntime never does; nor
	// does one carrying a trace, an output sink or a fault schedule — a
	// coalesced completion would leave the caller's trace empty or its sink
	// starved, a plain request coalesced onto a sinked one would get no
	// Output, and one coalesced onto a faulted one would get its injected
	// error.
	if !s.coalesceOn || cfg.net != nil || cfg.trace != nil || cfg.sink != nil || cfg.faults != nil {
		return s.execute(ctx, q, db, cfg)
	}
	start := s.metrics.Now()
	v, coalesced := s.flight.Do(s.requestKey(&cfg, q, db), func() any {
		rep, err := s.execute(ctx, q, db, cfg)
		return outcome{rep, err}
	})
	out := v.(outcome)
	if coalesced {
		// A coalesced completion is a served request — it counts toward
		// throughput with its real wait latency — that moved no bits of its
		// own.
		if out.err != nil {
			s.metrics.RecordFailure(s.metrics.Since(start))
		} else {
			s.metrics.RecordSuccess(s.metrics.Since(start), 0, 0, 0)
		}
	}
	return out.rep, out.err
}

// outcome is one executed request's answer.
type outcome struct {
	rep *Report
	err error
}

// resolveOpts materializes a request's RunOptions into a runConfig,
// containing any panic from a caller-supplied option, so the caller gets
// an error and the service a failure.
func resolveOpts(opts []RunOption) (cfg runConfig, perr error) {
	defer func() {
		if r := recover(); r != nil {
			perr = fmt.Errorf("mpcquery: service request panicked: %v", r)
		}
	}()
	return resolve(opts), nil
}

// breakerFor returns (creating on first use) the circuit breaker guarding
// one distributed runtime.
func (s *Service) breakerFor(t engine.Transport) *service.Breaker {
	s.brMu.Lock()
	defer s.brMu.Unlock()
	b, ok := s.breakers[t]
	if !ok {
		b = service.NewBreaker(s.breakerThreshold, s.breakerCooldown)
		s.breakers[t] = b
	}
	return b
}

// breakerState reports the worst breaker state across the guarded
// runtimes (0 closed, 1 half-open, 2 open) for the mpc_circuit_state
// gauge.
func (s *Service) breakerState() service.BreakerState {
	s.brMu.Lock()
	defer s.brMu.Unlock()
	worst := service.BreakerClosed
	for _, b := range s.breakers {
		if st := b.State(); st > worst {
			worst = st
		}
	}
	return worst
}

// breakerTrips sums lifetime trips across the guarded runtimes.
func (s *Service) breakerTrips() int64 {
	s.brMu.Lock()
	defer s.brMu.Unlock()
	var n int64
	for _, b := range s.breakers {
		n += b.Trips()
	}
	return n
}

// execute admits one request to the pool, runs it with Run's executor and
// waits for its result or the context, recording metrics either way.
func (s *Service) execute(ctx context.Context, q *Query, db *Database, cfg runConfig) (*Report, error) {
	// Circuit breaker: a request carrying a distributed runtime whose
	// breaker is open is downgraded to the in-process runtime and its Report
	// marked Degraded. Closed (or probing half-open) breakers let the
	// request through and learn from its outcome.
	var br *service.Breaker
	degradedReq := false
	if s.breakerOn && cfg.net != nil {
		br = s.breakerFor(cfg.net)
		if !br.Allow() {
			degradedReq = true
			cfg.net = nil
		}
	}

	start := s.metrics.Now()
	ch := make(chan outcome, 1)
	var abandoned atomic.Bool
	if err := s.pool.Submit(func() {
		if abandoned.Load() {
			return // caller already gone; skip the work entirely
		}
		// run converts strategy panics into *StrategyError, but a panic can
		// fire before its recover boundary. Contain it here so one bad
		// request neither kills the worker nor leaves this caller blocked on
		// ch forever.
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{nil, fmt.Errorf("mpcquery: service request panicked: %v", r)}
			}
		}()
		rep, err := run(q, db, cfg)
		if br != nil && !degradedReq {
			// A degraded run never touched the runtime, so it teaches the
			// breaker nothing. Of runs that did, only peer unavailability is
			// a dependency failure; strategy errors and canceled contexts
			// say nothing about the runtime.
			switch {
			case err == nil:
				br.RecordSuccess()
			case errors.Is(err, ErrPeerUnavailable):
				br.RecordFailure()
			}
		}
		if degradedReq && err == nil {
			rep.Degraded = true
			s.degraded.Add(1)
		}
		ch <- outcome{rep, err}
	}); err != nil {
		if errors.Is(err, ErrOverloaded) {
			s.metrics.RecordShed()
		}
		return nil, fmt.Errorf("mpcquery: service admission: %w", err)
	}
	select {
	case out := <-ch:
		latency := s.metrics.Since(start)
		if out.err != nil {
			s.metrics.RecordFailure(latency)
			return nil, out.err
		}
		s.metrics.RecordSuccess(latency, out.rep.TotalBits, out.rep.MaxLoadBits, out.rep.Rounds)
		return out.rep, nil
	case <-ctx.Done():
		abandoned.Store(true)
		s.metrics.RecordFailure(s.metrics.Since(start))
		return nil, fmt.Errorf("mpcquery: service request canceled: %w", ctx.Err())
	}
}

// requestKey renders a request's full identity — strategy and every
// result-affecting option, the query, and the database's registration id
// and version — for single-flight coalescing. Two requests with equal keys
// are guaranteed (by seeded determinism) to produce bit-identical Reports.
func (s *Service) requestKey(cfg *runConfig, q *Query, db *Database) string {
	qs := "<nil>"
	if q != nil {
		qs = q.Name + "|" + q.String()
	}
	// Per-atom tuple counts fingerprint growth, exactly as the cache's
	// composePrefix does (deterministic order: the query's atoms, never a
	// map walk).
	sizes := ""
	if q != nil && db != nil {
		for _, a := range q.Atoms {
			if rel, ok := db.Relations[a.Name]; ok {
				sizes += fmt.Sprintf("|%d", rel.NumTuples())
			} else {
				sizes += "|-"
			}
		}
	}
	return fmt.Sprintf("%#v|p%d|s%d|cap%g|rb%d|agg%#v|push%t|st%t|ch%d|%s|%s%s",
		cfg.strategy, cfg.servers, cfg.seed, cfg.loadCapBits,
		cfg.roundBudget, cfg.aggregate, cfg.aggPushdown, cfg.streaming, cfg.streamChunk,
		qs, s.dbTag(db), sizes)
}

// dbTag registers db (if new) and returns its identity-and-version tag —
// the field both cache keys and coalescing keys embed so entries die with
// InvalidateDatabase.
func (s *Service) dbTag(db *Database) string {
	if db == nil {
		return "db<nil>"
	}
	s.mu.Lock()
	e, ok := s.dbs[db]
	if !ok {
		s.nextID++
		e = &dbEntry{id: s.nextID}
		s.dbs[db] = e
		s.dbOrder = append(s.dbOrder, db)
		if len(s.dbOrder) > maxTrackedDatabases {
			oldest := s.dbOrder[0]
			s.dbOrder = s.dbOrder[1:]
			if old, ok := s.dbs[oldest]; ok {
				delete(s.dbs, oldest)
				defer s.purgeDB(old)
			}
		}
	}
	tag := fmt.Sprintf("db%d.v%d", e.id, e.version)
	s.mu.Unlock()
	return tag
}

// execCacheFor returns the cache handle for one request, tagging keys with
// the database's identity and current version. With caching off it returns
// nil and Run behaves exactly like the plain path.
func (s *Service) execCacheFor(db *Database) *execCache {
	if db == nil || !s.cacheOn {
		return nil
	}
	return &execCache{cache: s.cache, dbTag: s.dbTag(db)}
}

// InvalidateDatabase declares that db's contents changed in place, bumping
// its version so every cached plan and statistic derived from it becomes
// unreachable, and purging the now-dead entries from the cache.
// Appending tuples to a relation is detected automatically (relation sizes
// are part of every cache key); only in-place value edits need this call.
func (s *Service) InvalidateDatabase(db *Database) {
	s.mu.Lock()
	e, ok := s.dbs[db]
	var stale dbEntry
	if ok {
		stale = *e
		e.version++
	}
	s.mu.Unlock()
	if ok {
		s.purgeDB(&stale)
	}
}

// purgeDB drops every cache entry keyed under one database version. Keys
// embed the tag as a |-delimited field, so the substring match is exact.
func (s *Service) purgeDB(e *dbEntry) {
	tag := fmt.Sprintf("|db%d.v%d|", e.id, e.version)
	s.cache.PurgeMatching(tag)
}

// ServiceCacheStats reports one cache's effectiveness (hits, misses,
// entries, evictions, and a HitRate method).
type ServiceCacheStats = service.CacheStats

// ServiceStats is a point-in-time snapshot of the service's aggregate
// behavior across every query it has served.
type ServiceStats struct {
	Completed int64 // queries that returned a Report
	Failed    int64 // queries that returned an error
	Shed      int64 // requests refused with ErrOverloaded

	Uptime     time.Duration
	Throughput float64 // completed queries per second of uptime

	// Wall-clock latency (queue wait + execution) of every request served
	// since NewService, failed ones included, from one cumulative
	// histogram. Each percentile is reported as the upper bound of the
	// bucket it falls in, on a ladder from 100µs to 60s, and never above
	// LatencyMax, which is exact.
	LatencyP50 time.Duration
	LatencyP95 time.Duration
	LatencyP99 time.Duration
	LatencyMax time.Duration

	TotalBits   float64 // Σ Report.TotalBits over executed requests; a coalesced completion adds none
	MaxLoadBits float64 // max Report.MaxLoadBits seen
	TotalRounds int64   // Σ Report.Rounds over executed requests; a coalesced completion adds none

	Cache ServiceCacheStats // plans and statistics results

	// Request coalescing (WithRequestCoalescing): completed requests served
	// by another in-flight execution's result, and the fraction of all
	// resolved requests they represent.
	Coalesced    int64
	CoalesceRate float64

	// Circuit breaking (WithCircuitBreaker): requests answered by the
	// in-process fallback while a runtime's breaker was open, lifetime
	// breaker trips, and the worst current breaker state ("closed",
	// "half-open", "open"; "closed" when breaking is off or no runtime has
	// been seen).
	Degraded     int64
	BreakerTrips int64
	CircuitState string

	Workers    int // concurrent query executions allowed
	QueueDepth int // admission queue capacity
	Queued     int // requests waiting right now (snapshot)
}

// Stats returns the service's aggregate metrics.
func (s *Service) Stats() ServiceStats {
	sum := s.metrics.Snapshot()
	fl := s.flight.Stats()
	return ServiceStats{
		Completed:    sum.Completed,
		Failed:       sum.Failed,
		Shed:         sum.Shed,
		Uptime:       sum.Uptime,
		Throughput:   sum.Throughput,
		LatencyP50:   sum.LatencyP50,
		LatencyP95:   sum.LatencyP95,
		LatencyP99:   sum.LatencyP99,
		LatencyMax:   sum.LatencyMax,
		TotalBits:    sum.TotalBits,
		MaxLoadBits:  sum.MaxLoadBits,
		TotalRounds:  sum.TotalRounds,
		Cache:        s.cache.Stats(),
		Coalesced:    fl.Hits,
		CoalesceRate: fl.HitRate(),
		Degraded:     s.degraded.Load(),
		BreakerTrips: s.breakerTrips(),
		CircuitState: s.breakerState().String(),
		Workers:      s.pool.Workers(),
		QueueDepth:   s.pool.QueueDepth(),
		Queued:       s.pool.Queued(),
	}
}

// Close stops admission (subsequent Runs return ErrServiceClosed), waits
// for queued and in-flight queries to finish, releases the workers, and
// shuts down the debug listener, if any. Close is idempotent.
func (s *Service) Close() {
	if s.debugSrv != nil {
		s.debugSrv.Close()
	}
	s.pool.Close()
}
