package mpcquery

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mpcquery/internal/transport"
)

// TestServiceContextCanceled asserts both cancellation points: a request
// arriving with a dead context is refused before admission, and a request
// canceled while queued returns the context error instead of blocking.
func TestServiceContextCanceled(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	q := Star(2)
	db := MatchingDatabase(rng, q, 2000, 1<<16)

	svc := NewService(WithRequestCoalescing(false), WithServiceWorkers(1), WithServiceQueue(8))
	defer svc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Run(ctx, q, db, WithServers(16)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run with pre-canceled context = %v, want context.Canceled", err)
	}

	// Occupy the single worker, then cancel a queued request mid-wait.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		svc.Run(context.Background(), q, db, WithServers(16), WithStrategy(HyperCube()))
	}()
	ctx2, cancel2 := context.WithCancel(context.Background())
	wg.Add(1)
	var queuedErr error
	go func() {
		defer wg.Done()
		_, queuedErr = svc.Run(ctx2, q, db, WithServers(16), WithStrategy(HyperCubeOblivious()))
	}()
	cancel2()
	wg.Wait()
	// The queued request either lost the race with cancellation (error) or
	// had already completed; an error must carry the context cause.
	if queuedErr != nil && !errors.Is(queuedErr, context.Canceled) {
		t.Fatalf("canceled queued request = %v, want context.Canceled", queuedErr)
	}
}

// TestServiceRequestCoalescing asserts concurrent identical requests share
// one execution: at least one hit is counted, every caller still gets the
// bit-identical Report, the stats expose the hit rate, and the communication
// totals count only executed requests.
func TestServiceRequestCoalescing(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	q := Star(2)
	db := SkewedStarDatabase(rng, 2, 4000, 1<<16, map[int64]int{7: 500})

	svc := NewService(WithServiceWorkers(1), WithServiceQueue(64), WithCaching(false))
	defer svc.Close()

	const clients = 16
	reps := make([]*Report, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			reps[c], errs[c] = svc.Run(context.Background(), q, db,
				WithStrategy(HyperCube()), WithServers(32), WithSeed(5))
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	for c := 1; c < clients; c++ {
		if reps[c].Fingerprint() != reps[0].Fingerprint() {
			t.Fatalf("client %d got a different Report:\n%s\n%s", c, reps[c].Fingerprint(), reps[0].Fingerprint())
		}
	}
	st := svc.Stats()
	if st.Coalesced == 0 {
		t.Fatal("no request was coalesced across 16 concurrent identical requests")
	}
	if st.CoalesceRate <= 0 || st.CoalesceRate >= 1 {
		t.Fatalf("CoalesceRate = %v, want in (0,1)", st.CoalesceRate)
	}
	if st.Completed != clients {
		t.Fatalf("Completed = %d, want %d (coalesced requests count as served)", st.Completed, clients)
	}
	executed := st.Completed - st.Coalesced
	if want := float64(executed) * reps[0].TotalBits; st.TotalBits != want {
		t.Errorf("TotalBits = %v, want %d executed requests × %v bits = %v", st.TotalBits, executed, reps[0].TotalBits, want)
	}
	if want := executed * int64(reps[0].Rounds); st.TotalRounds != want {
		t.Errorf("TotalRounds = %d, want %d executed requests × %d rounds", st.TotalRounds, executed, reps[0].Rounds)
	}
}

// TestServiceCoalescingDisjointKeys asserts requests that differ in any
// result-affecting option never share an execution: different seeds must
// yield their own Reports (loads differ seed to seed).
func TestServiceCoalescingDisjointKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	q := Star(2)
	db := MatchingDatabase(rng, q, 400, 1<<16)

	svc := NewService(WithCaching(false))
	defer svc.Close()

	a, err := svc.Run(context.Background(), q, db, WithStrategy(HyperCube()), WithServers(16), WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Run(context.Background(), q, db, WithStrategy(HyperCube()), WithServers(16), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different seeds produced identical fingerprints — key too coarse?")
	}
}

// gatedSink is a DigestSink whose Chunk announces the first call on entered
// and then blocks until release is closed.
type gatedSink struct {
	DigestSink
	once             sync.Once
	entered, release chan struct{}
}

func (g *gatedSink) Chunk(server, arity int, vals []int64) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	g.DigestSink.Chunk(server, arity, vals)
}

// TestServiceSinkRequestNeverCoalesces asserts that a request with an output
// sink executes on its own: the sink is not part of the coalescing key, so a
// plain request joining a sinked execution would be served its nil Output.
// The sinked request holds its execution open inside Chunk until the plain
// request with the same key has completed — or, if that request is waiting
// on the sinked one instead, until a timeout releases both.
func TestServiceSinkRequestNeverCoalesces(t *testing.T) {
	q := Star(2)
	db := SkewedStarDatabase(rand.New(rand.NewSource(24)), 2, 400, 1<<12, map[int64]int{5: 40})
	svc := NewService(WithServiceWorkers(2), WithServiceQueue(8))
	defer svc.Close()
	opts := []RunOption{WithStrategy(HyperCube()), WithServers(16), WithSeed(3)}

	sink := &gatedSink{entered: make(chan struct{}), release: make(chan struct{})}
	sinked := make(chan error, 1)
	go func() {
		_, err := svc.Run(context.Background(), q, db, append(opts, WithOutputSink(sink))...)
		sinked <- err
	}()
	<-sink.entered

	type result struct {
		rep *Report
		err error
	}
	plainCh := make(chan result, 1)
	go func() {
		rep, err := svc.Run(context.Background(), q, db, opts...)
		plainCh <- result{rep, err}
	}()
	var plain result
	select {
	case plain = <-plainCh:
		close(sink.release)
	case <-time.After(5 * time.Second):
		close(sink.release)
		plain = <-plainCh
	}
	if err := <-sinked; err != nil {
		t.Fatalf("sinked request: %v", err)
	}
	if plain.err != nil {
		t.Fatalf("plain request: %v", plain.err)
	}
	if plain.rep.Output == nil {
		t.Fatal("plain request was served the sinked execution's report (nil Output)")
	}
	if n := sink.Tuples(); n != plain.rep.Output.NumTuples() {
		t.Errorf("sink saw %d rows, plain request's output has %d", n, plain.rep.Output.NumTuples())
	}
}

// TestServiceFaultedOrStreamedRequestNeverCoalesces asserts that a plain
// request never shares the execution of an otherwise identical request that
// carries a fault schedule, streams, or streams in another chunk size: it
// must not be served the faulted run's injected error or the streamed run's
// PeakBufferedBytes. A sinked request holds the single worker inside its
// sink while the leader and then the plain request queue behind it; a plain
// request coalesced onto the leader would wait on it instead of queuing.
func TestServiceFaultedOrStreamedRequestNeverCoalesces(t *testing.T) {
	q := Triangle()
	db := MatchingDatabase(rand.New(rand.NewSource(31)), q, 4000, 1<<12)
	base := []RunOption{WithStrategy(HyperCube()), WithServers(16), WithSeed(5)}
	crash := NewFaultPlan(1)
	crash.CrashRank = 0
	for _, tc := range []struct {
		name          string
		leader, plain []RunOption
	}{
		{"faults", []RunOption{WithFaultInjection(crash)}, nil},
		{"streaming", []RunOption{WithStreaming(true)}, nil},
		{"chunk", []RunOption{WithStreaming(true), withStreamChunk(16)}, []RunOption{WithStreaming(true)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plainOpts := append(append([]RunOption(nil), base...), tc.plain...)
			want, err := Run(q, db, plainOpts...)
			if err != nil {
				t.Fatal(err)
			}
			svc := NewService(WithServiceWorkers(1), WithServiceQueue(8))
			defer svc.Close()

			sink := &gatedSink{entered: make(chan struct{}), release: make(chan struct{})}
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				svc.Run(context.Background(), q, db, append(append([]RunOption(nil), base...), WithOutputSink(sink))...)
			}()
			<-sink.entered
			go func() {
				defer wg.Done()
				svc.Run(context.Background(), q, db, append(append([]RunOption(nil), base...), tc.leader...)...)
			}()
			queued := func(n int) bool {
				for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
					if svc.Stats().Queued == n {
						return true
					}
				}
				return false
			}
			if !queued(1) {
				t.Fatal("the leader never queued behind the sinked request")
			}
			var plain *Report
			wg.Add(1)
			go func() {
				defer wg.Done()
				plain, err = svc.Run(context.Background(), q, db, plainOpts...)
			}()
			if !queued(2) {
				t.Error("the plain request did not queue: it waits on the leader's execution")
			}
			close(sink.release)
			wg.Wait()
			if err != nil {
				t.Fatalf("plain request was served the leader's outcome: %v", err)
			}
			if n := svc.Stats().Coalesced; n != 0 {
				t.Errorf("Coalesced = %d, want 0", n)
			}
			if got := plain.PeakBufferedBytes; got != want.PeakBufferedBytes {
				t.Errorf("PeakBufferedBytes = %d, want %d (a plain Run's)", got, want.PeakBufferedBytes)
			}
			if plain.Fingerprint() != want.Fingerprint() {
				t.Error("fingerprint differs from a plain Run's")
			}
		})
	}
}

// BenchmarkServiceCoalescing measures what single-flight saves on the
// stream it exists for: each iteration is one wave of 16 byte-identical
// concurrent requests against a 2-worker service with plan and statistics
// caching off, a new seed per wave so no wave repeats another. The request
// is the sampled-statistics star join (a statistics round plus the data
// round, ~2 M output rows): the most expensive single-round run, so the one
// coalescing saves the most on. Uncoalesced, a wave is 16 executions over
// 2 workers; coalesced it is one. Wave i's fingerprint must agree between
// the off and on passes; it is taken once per wave with the timer stopped —
// fingerprinting this output costs about as much as producing it.
func BenchmarkServiceCoalescing(b *testing.B) {
	const clients = 16
	heavy := map[int64]int{}
	for v := int64(1); v <= 12; v++ {
		heavy[v] = 500
	}
	q := Star(2)
	db := SkewedStarDatabase(rand.New(rand.NewSource(42)), 2, 4000, 1<<16, heavy)
	waveFP := map[int]string{} // wave → fingerprint, shared by both passes

	for _, mode := range []struct {
		name     string
		coalesce bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			svc := NewService(WithRequestCoalescing(mode.coalesce),
				WithServiceWorkers(2), WithServiceQueue(2*clients), WithCaching(false))
			defer svc.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var (
					wg   sync.WaitGroup
					reps [clients]*Report
					errs [clients]error
				)
				opts := []RunOption{WithStrategy(SkewedStarSampled(150)), WithServers(64), WithSeed(int64(1000 + i))}
				for c := 0; c < clients; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						reps[c], errs[c] = svc.Run(context.Background(), q, db, opts...)
					}(c)
				}
				wg.Wait()
				b.StopTimer()
				for c, err := range errs {
					if err != nil {
						b.Fatalf("wave %d client %d: %v", i, c, err)
					}
				}
				fp := reps[0].Fingerprint()
				if want, ok := waveFP[i]; !ok {
					waveFP[i] = fp
				} else if fp != want {
					b.Fatalf("wave %d: fingerprint differs between coalescing off and on\n got %s\nwant %s", i, fp, want)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(svc.Stats().Coalesced)/float64(b.N), "coalesced/wave")
		})
	}
}

// deadPeerRuntime joins a 2-rank loopback group whose rank 1 dials in and
// immediately leaves: rank 0's runtime is connected but every distributed
// run on it fails with ErrPeerUnavailable within the round timeout.
func deadPeerRuntime(t *testing.T, timeout time.Duration) *DistributedRuntime {
	t.Helper()
	addrs, err := transport.FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	short := []RuntimeOption{
		WithRoundTimeout(timeout),
		WithDialBudget(40, 5*time.Millisecond),
		WithWriteRetries(1),
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if rt1, err := DialRuntime(1, addrs, short...); err == nil {
			time.Sleep(30 * time.Millisecond) // let rank 0 finish its handshake
			rt1.Close()
		}
	}()
	rt, err := DialRuntime(0, addrs, short...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { rt.Close(); <-done })
	<-done
	return rt
}

// TestServiceCircuitBreakerDegrades is the graceful-degradation contract:
// once a runtime's breaker trips, requests that carry it are answered by
// the in-process runtime — bit-identical Report, Degraded flag set —
// instead of failing, and the downgrade is visible in Stats (Degraded
// count, BreakerTrips, CircuitState) and the mpc_circuit_state gauge.
func TestServiceCircuitBreakerDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	q := Triangle()
	db := MatchingDatabase(rng, q, 60, 1<<12)

	want, err := Run(q, db, WithServers(8), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}

	rt := deadPeerRuntime(t, 300*time.Millisecond)
	svc := NewService(WithCircuitBreaker(1, time.Hour),
		WithServiceWorkers(2), WithCaching(false))
	defer svc.Close()

	// First request probes the dead group, fails, and trips the breaker
	// (threshold 1).
	if _, err := svc.Run(context.Background(), q, db,
		WithServers(8), WithSeed(3), WithRuntime(rt)); !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("first request = %v, want ErrPeerUnavailable", err)
	}
	if st := svc.Stats(); st.BreakerTrips != 1 || st.CircuitState != "open" {
		t.Fatalf("after trip: BreakerTrips=%d CircuitState=%q, want 1/open", st.BreakerTrips, st.CircuitState)
	}

	// Tripped: the same request now succeeds degraded, bit-identical to
	// the in-process reference.
	rep, err := svc.Run(context.Background(), q, db,
		WithServers(8), WithSeed(3), WithRuntime(rt))
	if err != nil {
		t.Fatalf("degraded request failed: %v", err)
	}
	if !rep.Degraded {
		t.Fatal("tripped-breaker Report lacks Degraded flag")
	}
	if got := rep.Fingerprint(); got != want.Fingerprint() {
		t.Fatalf("degraded run diverged from in-process reference\n got %s\nwant %s", got, want.Fingerprint())
	}
	st := svc.Stats()
	if st.Degraded != 1 {
		t.Fatalf("Stats.Degraded = %d, want 1", st.Degraded)
	}
	// Requests without a runtime never consult the breaker and never
	// carry the flag.
	rep2, err := svc.Run(context.Background(), q, db, WithServers(8), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Degraded {
		t.Fatal("in-process request wrongly marked Degraded")
	}
}

// TestServiceCloseDrainBounded is the Close-wedge regression: Close must
// wait for an in-flight distributed request, but that wait is bounded by
// the runtime's RoundTimeout — a peer that never delivers cannot wedge
// shutdown indefinitely.
func TestServiceCloseDrainBounded(t *testing.T) {
	addrs, err := transport.FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	const roundTimeout = 400 * time.Millisecond
	short := []RuntimeOption{WithRoundTimeout(roundTimeout), WithDialBudget(40, 5*time.Millisecond)}
	done := make(chan struct{})
	var silent *DistributedRuntime
	go func() {
		defer close(done)
		// Rank 1 joins the group and sits silent: connected, never
		// delivering — the wedged-peer shape.
		silent, _ = DialRuntime(1, addrs, short...)
	}()
	rt, err := DialRuntime(0, addrs, short...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() {
		rt.Close()
		<-done
		if silent != nil {
			silent.Close()
		}
	}()

	svc := NewService(WithServiceWorkers(1))
	q := Triangle()
	db := MatchingDatabase(rand.New(rand.NewSource(26)), q, 60, 1<<12)
	started := make(chan struct{})
	var runErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		close(started)
		_, runErr = svc.Run(context.Background(), q, db, WithServers(8), WithRuntime(rt))
	}()
	<-started
	time.Sleep(50 * time.Millisecond) // let the request reach the wedged round

	closeStart := time.Now()
	svc.Close()
	elapsed := time.Since(closeStart)
	wg.Wait()
	if limit := 10 * roundTimeout; elapsed > limit {
		t.Fatalf("Close took %v with a wedged peer; want bounded by the %v round timeout", elapsed, roundTimeout)
	}
	if runErr == nil {
		t.Fatal("in-flight request against a silent peer succeeded")
	}
	if !errors.Is(runErr, ErrPeerUnavailable) && !errors.Is(runErr, ErrRuntimeClosed) {
		t.Fatalf("drained request error = %v, want ErrPeerUnavailable or ErrRuntimeClosed", runErr)
	}
}
