package mpcquery

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mpcquery/internal/query"
)

// serviceCase is one (workload, strategy) pair exercised by the cache
// correctness and concurrency tests. Every strategy family is represented.
type serviceCase struct {
	name     string
	q        *Query // nil for SelfJoin (strategy provides it)
	db       *Database
	strategy Strategy
	opts     []RunOption
}

// serviceCases builds one small workload per strategy family on a shared
// seeded generator, so the whole table stays fast enough to run 8-way under
// the race detector.
func serviceCases(tb testing.TB) []serviceCase {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	const m, n = 400, 1 << 16

	tri := Triangle()
	triDB := MatchingDatabase(rng, tri, m, n)
	triSkewDB := SkewedTriangleDatabase(rng, m, n, 7, m/8)
	star := Star(3)
	starDB := SkewedStarDatabase(rng, 3, m, n, map[int64]int{7: m / 8, 13: m / 16})
	chain := Chain(4)
	chainDB := ChainMatchingDatabase(rng, 4, m, n)

	edges := NewRelation("E", 2)
	for i := 0; i < m; i++ {
		edges.Append(rng.Int63n(n/64), rng.Int63n(n/64))
	}
	pathsDB := NewDatabase(n)
	pathsDB.Add(edges)

	return []serviceCase{
		{"hypercube", tri, triDB, HyperCube(), nil},
		{"hypercube-oblivious", tri, triSkewDB, HyperCubeOblivious(), nil},
		{"hypercube-shares", chain, chainDB, HyperCubeShares(1, 4, 4, 1, 1), nil},
		{"selfjoin", nil, pathsDB, SelfJoin("paths",
			Atom{Name: "E", Vars: []string{"x", "y"}},
			Atom{Name: "E", Vars: []string{"y", "z"}}), nil},
		{"skewed-star", star, starDB, SkewedStar(), nil},
		{"skewed-star-sampled", star, starDB, SkewedStarSampled(100), nil},
		{"skewed-triangle", tri, triSkewDB, SkewedTriangle(), nil},
		{"skewed-generic", tri, triSkewDB, SkewedGeneric(), nil},
		{"chain-plan", chain, chainDB, ChainPlan(0.5), nil},
		{"greedy-plan", chain, chainDB, GreedyPlan(0), nil},
		{"greedy-plan-skew", chain, chainDB, GreedyPlanSkewAware(0), nil},
		{"auto", chain, chainDB, Auto(), nil},
	}
}

func (c serviceCase) runOpts() []RunOption {
	opts := []RunOption{WithStrategy(c.strategy), WithServers(16), WithSeed(3)}
	return append(opts, c.opts...)
}

// TestServiceCachedReportsBitIdentical is the caching contract: for every
// strategy family, the Report produced through the service — on the cold
// path, the warm (cached-plan / cached-stats) path, and with caching
// disabled — must be bit-identical to the plain Run path. In particular the
// sampled-statistics strategy must still charge the sampling round's bits
// when the round itself was skipped on a stats-cache hit.
func TestServiceCachedReportsBitIdentical(t *testing.T) {
	svc := NewService(WithServiceWorkers(2))
	defer svc.Close()
	svcOff := NewService(WithCaching(false))
	defer svcOff.Close()

	for _, c := range serviceCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			base, err := Run(c.q, c.db, c.runOpts()...)
			if err != nil {
				t.Fatalf("plain Run: %v", err)
			}
			want := base.Fingerprint()

			cold, err := svc.Run(context.Background(), c.q, c.db, c.runOpts()...)
			if err != nil {
				t.Fatalf("service cold: %v", err)
			}
			if got := cold.Fingerprint(); got != want {
				t.Errorf("cold service run differs from plain Run:\n got %s\nwant %s", got, want)
			}
			warm, err := svc.Run(context.Background(), c.q, c.db, c.runOpts()...)
			if err != nil {
				t.Fatalf("service warm: %v", err)
			}
			if got := warm.Fingerprint(); got != want {
				t.Errorf("warm (cached) service run differs from plain Run:\n got %s\nwant %s", got, want)
			}
			off, err := svcOff.Run(context.Background(), c.q, c.db, c.runOpts()...)
			if err != nil {
				t.Fatalf("service caching-off: %v", err)
			}
			if got := off.Fingerprint(); got != want {
				t.Errorf("caching-off service run differs from plain Run:\n got %s\nwant %s", got, want)
			}
		})
	}

	st := svc.Stats()
	if st.PlanCache.Hits == 0 {
		t.Errorf("warm pass never hit the plan cache: %+v", st.PlanCache)
	}
	if st.StatsCache.Hits == 0 {
		t.Errorf("warm pass never hit the stats cache: %+v", st.StatsCache)
	}
	if off := svcOff.Stats(); off.PlanCache.Hits+off.PlanCache.Misses+off.StatsCache.Hits+off.StatsCache.Misses != 0 {
		t.Errorf("caching-off service touched its caches: %+v", off)
	}
}

// TestServiceShapeRenamedQuerySharesCache asserts the ShapeKey contract at
// the service level: a renamed-variable query of the same shape hits the
// plan cache and still reports identically to its own plain Run.
func TestServiceShapeRenamedQuerySharesCache(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	q1 := query.MustParse("q(x,y,z) :- R(x,y), S(y,z)")
	q2 := query.MustParse("other(a,b,c) :- R(a,b), S(b,c)")
	db := MatchingDatabase(rng, q1, 500, 1<<16)

	svc := NewService()
	defer svc.Close()
	if _, err := svc.Run(context.Background(), q1, db, WithServers(16)); err != nil {
		t.Fatal(err)
	}
	misses := svc.Stats().PlanCache.Misses
	rep2, err := svc.Run(context.Background(), q2, db, WithServers(16))
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().PlanCache.Misses; got != misses {
		t.Errorf("renamed same-shape query missed the plan cache (misses %d -> %d)", misses, got)
	}
	base, err := Run(q2, db, WithServers(16))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Fingerprint() != base.Fingerprint() {
		t.Errorf("renamed query served from cache differs from its plain Run:\n got %s\nwant %s",
			rep2.Fingerprint(), base.Fingerprint())
	}
	// Even presentation fields must match the request, not the query the
	// cached plan was built from.
	if rep2.Output.Name != base.Output.Name || rep2.Query != q2 {
		t.Errorf("cached run leaked the plan-origin query: output %q (want %q), query %s",
			rep2.Output.Name, base.Output.Name, rep2.Query)
	}
}

// TestServiceTriangleSharesGenericPlan asserts that SkewedTriangle is a
// front door to the generic planner: run after it on the same C3 database,
// SkewedGeneric hits the plan SkewedTriangle cached and moves the same bits.
func TestServiceTriangleSharesGenericPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	q := Triangle()
	db := SkewedTriangleDatabase(rng, 1000, 1<<16, 7, 500)
	svc := NewService()
	defer svc.Close()

	tri, err := svc.Run(context.Background(), q, db, WithStrategy(SkewedTriangle()), WithServers(16))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := svc.Run(context.Background(), q, db, WithStrategy(SkewedGeneric()), WithServers(16))
	if err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats().PlanCache; st.Misses != 1 || st.Hits != 1 {
		t.Errorf("plan cache %+v, want 1 miss and 1 hit", st)
	}
	if !EqualRelations(tri.Output, gen.Output) || tri.MaxLoadBits != gen.MaxLoadBits {
		t.Errorf("triangle: %d tuples at %v bits; generic: %d tuples at %v bits",
			tri.Output.NumTuples(), tri.MaxLoadBits, gen.Output.NumTuples(), gen.MaxLoadBits)
	}
	if tri.HeavyHitters == 0 {
		t.Error("the instance holds no hitter above the heavy cut")
	}
}

// TestServiceStarSharesGenericPlan asserts that SkewedStar is a front door
// to the generic planner: run after it on the same star database,
// SkewedGeneric hits the plan SkewedStar cached and moves the same bits.
func TestServiceStarSharesGenericPlan(t *testing.T) {
	q := Star(2)
	db := SkewedStarDatabase(rand.New(rand.NewSource(9)), 2, 1000, 1<<16, map[int64]int{5: 200, 9: 80})
	svc := NewService()
	defer svc.Close()

	star, err := svc.Run(context.Background(), q, db, WithStrategy(SkewedStar()), WithServers(16))
	if err != nil {
		t.Fatal(err)
	}
	gen, err := svc.Run(context.Background(), q, db, WithStrategy(SkewedGeneric()), WithServers(16))
	if err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats().PlanCache; st.Misses != 1 || st.Hits != 1 {
		t.Errorf("plan cache %+v, want 1 miss and 1 hit", st)
	}
	if !EqualRelations(star.Output, gen.Output) || star.MaxLoadBits != gen.MaxLoadBits {
		t.Errorf("star: %d tuples at %v bits; generic: %d tuples at %v bits",
			star.Output.NumTuples(), star.MaxLoadBits, gen.Output.NumTuples(), gen.MaxLoadBits)
	}
	if star.HeavyHitters != 2 {
		t.Errorf("%d heavy hitters, want both planted values above the cut m/p", star.HeavyHitters)
	}
}

// TestServiceSizeChangeInvalidates asserts the automatic part of the
// database fingerprint: growing a relation changes the cache key, so the
// service replans instead of serving a stale layout.
func TestServiceSizeChangeInvalidates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := Triangle()
	db := MatchingDatabase(rng, q, 300, 1<<16)
	svc := NewService()
	defer svc.Close()

	if _, err := svc.Run(context.Background(), q, db, WithServers(8)); err != nil {
		t.Fatal(err)
	}
	misses := svc.Stats().PlanCache.Misses
	db.Get("S1").Append(1, 2) // grow a relation
	rep, err := svc.Run(context.Background(), q, db, WithServers(8))
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().PlanCache.Misses; got <= misses {
		t.Errorf("grown database hit a stale plan (misses stayed %d)", misses)
	}
	base, _ := Run(q, db, WithServers(8))
	if rep.Fingerprint() != base.Fingerprint() {
		t.Error("post-growth service run differs from plain Run")
	}
}

// TestServiceInvalidateDatabase asserts the explicit invalidation path for
// in-place edits that keep sizes unchanged.
func TestServiceInvalidateDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	q := Star(2)
	db := SkewedStarDatabase(rng, 2, 400, 1<<16, map[int64]int{7: 50})
	svc := NewService()
	defer svc.Close()

	if _, err := svc.Run(context.Background(), q, db, WithStrategy(SkewedStar()), WithServers(8)); err != nil {
		t.Fatal(err)
	}
	// Swap a value in place: same sizes, different frequencies.
	db.Get("S1").Tuple(0)[0] = 9999
	svc.InvalidateDatabase(db)
	rep, err := svc.Run(context.Background(), q, db, WithStrategy(SkewedStar()), WithServers(8))
	if err != nil {
		t.Fatal(err)
	}
	base, _ := Run(q, db, WithStrategy(SkewedStar()), WithServers(8))
	if rep.Fingerprint() != base.Fingerprint() {
		t.Error("post-invalidation service run differs from plain Run")
	}
}

// blockingStrategy parks every Execute on a channel so tests can hold the
// pool's workers busy deterministically.
type blockingStrategy struct {
	gate    chan struct{}
	started chan struct{}
}

func (b *blockingStrategy) Name() string { return "blocking-stub" }

func (b *blockingStrategy) Execute(ctx ExecContext) (*Report, error) {
	select {
	case b.started <- struct{}{}:
	default:
	}
	<-b.gate
	return &Report{Strategy: b.Name(), Rounds: 1}, nil
}

// TestServiceAdmissionControl fills one worker and one queue slot, then
// asserts the next request is shed with ErrOverloaded and counted.
func TestServiceAdmissionControl(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := Star(2)
	db := MatchingDatabase(rng, q, 10, 1<<10)

	// Coalescing off: this test floods identical requests to fill the queue,
	// which single-flight would otherwise collapse into one execution.
	stub := &blockingStrategy{gate: make(chan struct{}), started: make(chan struct{}, 16)}
	svc := NewService(WithServiceWorkers(1), WithServiceQueue(1), WithRequestCoalescing(false))
	defer svc.Close()

	var wg sync.WaitGroup
	results := make(chan error, 16)
	launch := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := svc.Run(context.Background(), q, db, WithStrategy(stub))
			results <- err
		}()
	}
	launch()
	<-stub.started // the single worker is now parked inside Execute

	// Fill the queue, then demand a shed. Submission is racy against the
	// worker dequeue, so keep launching until ErrOverloaded appears.
	shed := false
	deadline := time.Now().Add(5 * time.Second)
	for !shed && time.Now().Before(deadline) {
		done := make(chan error, 1)
		go func() {
			_, err := svc.Run(context.Background(), q, db, WithStrategy(stub))
			done <- err
		}()
		select {
		case err := <-done:
			if errors.Is(err, ErrOverloaded) {
				shed = true
			} else if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			// nil: that request is parked or queued; keep going.
		case <-time.After(50 * time.Millisecond):
			// Request admitted and waiting; try another.
			go func() { <-done }()
		}
	}
	if !shed {
		t.Error("service never shed load with ErrOverloaded")
	}
	close(stub.gate) // release every parked Execute
	wg.Wait()

	st := svc.Stats()
	if st.Shed < 1 {
		t.Errorf("Stats().Shed = %d, want >= 1", st.Shed)
	}
	if st.Workers != 1 || st.QueueDepth != 1 {
		t.Errorf("pool geometry %d/%d, want 1/1", st.Workers, st.QueueDepth)
	}
}

// TestServicePanicContainment asserts a panic outside Run's own recover
// boundary (here: a panicking RunOption) comes back as an error, does not
// hang the caller, and leaves the service serving.
func TestServicePanicContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	q := Star(2)
	db := MatchingDatabase(rng, q, 50, 1<<12)
	svc := NewService(WithServiceWorkers(1))
	defer svc.Close()

	bad := RunOption(func(*runConfig) { panic("option boom") })
	if _, err := svc.Run(context.Background(), q, db, bad); err == nil {
		t.Fatal("panicking option returned no error")
	}
	// The single worker must have survived.
	if _, err := svc.Run(context.Background(), q, db); err != nil {
		t.Fatalf("service dead after contained panic: %v", err)
	}
}

// TestServiceClose asserts post-Close requests fail with ErrServiceClosed.
func TestServiceClose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	q := Star(2)
	db := MatchingDatabase(rng, q, 10, 1<<10)
	svc := NewService()
	if _, err := svc.Run(context.Background(), q, db); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if _, err := svc.Run(context.Background(), q, db); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("Run after Close = %v, want ErrServiceClosed", err)
	}
	svc.Close() // idempotent
}

// TestServiceMetrics sanity-checks the aggregate counters after a small
// stream.
func TestServiceMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	q := Triangle()
	db := MatchingDatabase(rng, q, 300, 1<<16)
	svc := NewService()
	defer svc.Close()

	const runs = 6
	for i := 0; i < runs; i++ {
		if _, err := svc.Run(context.Background(), q, db, WithServers(8), WithSeed(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// One failing request (S4 is missing from the triangle database).
	if _, err := svc.Run(context.Background(), Star(4), db); err == nil {
		t.Fatal("expected missing-relation error")
	}

	st := svc.Stats()
	if st.Completed != runs || st.Failed != 1 {
		t.Errorf("completed/failed = %d/%d, want %d/1", st.Completed, st.Failed, runs)
	}
	if st.TotalBits <= 0 || st.MaxLoadBits <= 0 || st.TotalRounds < runs {
		t.Errorf("degenerate aggregates: %+v", st)
	}
	if st.Throughput <= 0 || st.LatencyP50 <= 0 || st.LatencyMax < st.LatencyP50 {
		t.Errorf("degenerate latency metrics: %+v", st)
	}
	if st.PlanCache.HitRate() <= 0 {
		t.Errorf("plan cache never hit across %d identical queries: %+v", runs, st.PlanCache)
	}
}

// TestServiceConcurrentMixedStream drives every strategy family through one
// shared service from many goroutines and asserts each Report matches its
// plain-Run fingerprint — the cache layer must be safe under contention,
// including the single-flight cold path. Run with -race.
func TestServiceConcurrentMixedStream(t *testing.T) {
	cases := serviceCases(t)
	want := make(map[string]string, len(cases))
	for _, c := range cases {
		rep, err := Run(c.q, c.db, c.runOpts()...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want[c.name] = rep.Fingerprint()
	}

	svc := NewService(WithServiceWorkers(4), WithServiceQueue(1024))
	defer svc.Close()

	const perCase = 4
	var wg sync.WaitGroup
	errs := make(chan error, len(cases)*perCase)
	for _, c := range cases {
		for i := 0; i < perCase; i++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				rep, err := svc.Run(context.Background(), c.q, c.db, c.runOpts()...)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", c.name, err)
					return
				}
				if got := rep.Fingerprint(); got != want[c.name] {
					errs <- fmt.Errorf("%s: concurrent service run diverged:\n got %s\nwant %s", c.name, got, want[c.name])
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
