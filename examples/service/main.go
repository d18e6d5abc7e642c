// Serving concurrent workloads: a Service wraps the one-shot Run path in a
// long-lived, concurrency-safe query service with one cache, keyed by
// Query.ShapeKey plus a database fingerprint, of plans (HyperCube shares,
// skew layouts, advisor choices) and statistics (the sampling round's
// heavy-hitter estimates — skipped on a hit but still charged to the
// Report), and admission control (a bounded worker pool that sheds load
// with ErrOverloaded instead of queueing without bound).
//
// This example fires the same skewed star join from many client goroutines:
// the first request pays for statistics and layout, every later one reuses
// them, and all Reports are bit-identical to a plain Run.
package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"mpcquery"
)

func main() {
	const (
		m = 2000
		n = 1 << 18
		p = 32
	)
	q := mpcquery.Star(2)
	rng := rand.New(rand.NewSource(1))
	db := mpcquery.SkewedStarDatabase(rng, 2, m, n, map[int64]int{7: m / 8, 9: m / 16})

	svc := mpcquery.NewService(
		mpcquery.WithServiceWorkers(4),
		mpcquery.WithServiceQueue(64),
	)
	defer svc.Close()

	// The reference: a plain, uncached Run of the same request.
	want, err := mpcquery.Run(q, db,
		mpcquery.WithStrategy(mpcquery.SkewedStarSampled(200)),
		mpcquery.WithServers(p), mpcquery.WithSeed(5))
	if err != nil {
		panic(err)
	}

	const clients = 16
	var wg sync.WaitGroup
	mismatches := 0
	var mu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := svc.Run(context.Background(), q, db,
				mpcquery.WithStrategy(mpcquery.SkewedStarSampled(200)),
				mpcquery.WithServers(p), mpcquery.WithSeed(5))
			if errors.Is(err, mpcquery.ErrOverloaded) {
				return // a real client would back off and retry
			}
			if err != nil {
				panic(err)
			}
			if rep.Fingerprint() != want.Fingerprint() {
				mu.Lock()
				mismatches++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	st := svc.Stats()
	fmt.Printf("served %d queries (%d shed), %d bit-identical mismatches\n",
		st.Completed, st.Shed, mismatches)
	fmt.Printf("cache (plans and statistics): %d hits / %d misses (rate %.2f) — sampling round executed once, charged %d times\n",
		st.Cache.Hits, st.Cache.Misses, st.Cache.HitRate(), st.Completed)
	fmt.Printf("latency p50 %v, p99 %v; total communication %.0f bits over the stream\n",
		st.LatencyP50, st.LatencyP99, st.TotalBits)
	fmt.Printf("every report still meters the stats round: rounds=%d (1 stats + %d data)\n",
		want.Rounds, want.Rounds-1)
}
