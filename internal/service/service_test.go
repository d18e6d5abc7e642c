package service

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsTasks(t *testing.T) {
	p := NewPool(4, 64)
	defer p.Close()
	var n atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		if err := p.Submit(func() { defer wg.Done(); n.Add(1) }); err != nil {
			wg.Done()
			t.Fatalf("Submit: %v", err)
		}
	}
	wg.Wait()
	if n.Load() != 50 {
		t.Fatalf("ran %d tasks, want 50", n.Load())
	}
}

func TestPoolShedsWhenFull(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Close()
	block := make(chan struct{})
	done := make(chan struct{})
	// Occupy the single worker, then fill the single queue slot.
	if err := p.Submit(func() { <-block; close(done) }); err != nil {
		t.Fatalf("Submit worker task: %v", err)
	}
	// The worker may not have dequeued yet; keep feeding until the queue is
	// genuinely full, then expect ErrOverloaded.
	deadline := time.Now().Add(2 * time.Second)
	overloaded := false
	for time.Now().Before(deadline) {
		err := p.Submit(func() { <-block })
		if errors.Is(err, ErrOverloaded) {
			overloaded = true
			break
		}
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	if !overloaded {
		t.Fatal("queue never reported ErrOverloaded")
	}
	close(block)
	<-done
}

func TestPoolCloseRejectsAndDrains(t *testing.T) {
	p := NewPool(2, 8)
	var n atomic.Int64
	for i := 0; i < 8; i++ {
		if err := p.Submit(func() { n.Add(1) }); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	p.Close()
	if n.Load() != 8 {
		t.Fatalf("Close drained %d tasks, want 8", n.Load())
	}
	if err := p.Submit(func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	p.Close() // idempotent
}

func TestCacheSingleFlight(t *testing.T) {
	c := NewCache(16)
	var computes atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]any, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], _ = c.Do("k", func() any {
				computes.Add(1)
				time.Sleep(10 * time.Millisecond) // widen the race window
				return 42
			})
		}(i)
	}
	close(start)
	wg.Wait()
	if computes.Load() != 1 {
		t.Fatalf("compute ran %d times, want 1 (single-flight)", computes.Load())
	}
	for i, r := range results {
		if r != 42 {
			t.Fatalf("caller %d got %v, want 42", i, r)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 15 {
		t.Fatalf("stats = %+v, want 1 miss / 15 hits", st)
	}
}

func TestCacheEvictionFIFO(t *testing.T) {
	c := NewCache(2)
	c.Do("a", func() any { return 1 })
	c.Do("b", func() any { return 2 })
	c.Do("c", func() any { return 3 }) // evicts "a"
	if n := c.Stats().Entries; n != 2 {
		t.Fatalf("entries = %d, want 2", n)
	}
	recomputed := false
	c.Do("a", func() any { recomputed = true; return 1 })
	if !recomputed {
		t.Fatal("evicted key served from cache")
	}
	if ev := c.Stats().Evictions; ev < 1 {
		t.Fatalf("evictions = %d, want >= 1", ev)
	}
}

func TestCachePanicRetries(t *testing.T) {
	c := NewCache(4)
	func() {
		defer func() { _ = recover() }()
		c.Do("k", func() any { panic("boom") })
		t.Fatal("panic did not propagate")
	}()
	got, _ := c.Do("k", func() any { return "ok" })
	if got != "ok" {
		t.Fatalf("retry after panic returned %v", got)
	}
}

func TestCachePurgeMatching(t *testing.T) {
	c := NewCache(8)
	c.Do("q1|db1.v0|x", func() any { return 1 })
	c.Do("q1|db2.v0|x", func() any { return 2 })
	c.Do("q2|db1.v0|y", func() any { return 3 })
	c.PurgeMatching("|db1.v0|")
	if n := c.Stats().Entries; n != 1 {
		t.Fatalf("entries after PurgeMatching = %d, want 1", n)
	}
	kept := false
	c.Do("q1|db2.v0|x", func() any { kept = true; return 2 })
	if kept {
		t.Fatal("PurgeMatching dropped an entry of another database")
	}
	recomputed := false
	c.Do("q1|db1.v0|x", func() any { recomputed = true; return 1 })
	if !recomputed {
		t.Fatal("purged entry served from cache")
	}
}

// TestCachePanicPropagatesToWaiters asserts concurrent waiters of a
// panicking compute observe the original panic value (not a nil result),
// and that the panicked key does not leave a stale slot in the FIFO order.
func TestCachePanicPropagatesToWaiters(t *testing.T) {
	c := NewCache(2)
	started := make(chan struct{})
	release := make(chan struct{})
	var computes, panics atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r == "boom" {
					panics.Add(1)
				}
			}()
			c.Do("k", func() any {
				if computes.Add(1) == 1 {
					close(started)
				}
				<-release // closed once; retries pass straight through
				panic("boom")
			})
		}()
	}
	<-started
	time.Sleep(20 * time.Millisecond) // let the other callers pile up as waiters
	close(release)
	wg.Wait()
	if got := panics.Load(); got != 4 {
		t.Fatalf("%d callers observed the panic, want all 4", got)
	}
	if computes.Load() == 4 {
		t.Log("note: no caller ended up waiting; propagation untested this run")
	}
	// The key must be retryable, and the panic must not leave a stale FIFO
	// slot: with [a, k-retried, b] at capacity 2, eviction must drop a (the
	// true oldest), not follow a stale front slot for k and evict the live
	// retried entry.
	c.Do("a", func() any { return 1 })
	c.Do("k", func() any { return "ok" })
	c.Do("b", func() any { return 2 }) // exceeds capacity: evicts a
	fromCache := true
	c.Do("k", func() any { fromCache = false; return "ok" })
	if !fromCache {
		t.Fatal("retried entry was evicted via a stale FIFO slot left by the panic")
	}
}

// TestCoalescedLeaderPanicReleasesWaiters: in a cache that keeps nothing
// (request coalescing), a leader whose computation panics releases every
// caller waiting on it with the same panic, and the key runs again. A
// caller that arrives after the panic ran its own computation; the test
// only bounds how long the callers may stay blocked.
func TestCoalescedLeaderPanicReleasesWaiters(t *testing.T) {
	c := NewCache(0)
	started, release := make(chan struct{}), make(chan struct{})
	const callers = 8
	var panics, own atomic.Int64
	var wg sync.WaitGroup
	call := func(leader bool) {
		defer wg.Done()
		defer func() {
			if r := recover(); r == "boom" {
				panics.Add(1)
			}
		}()
		c.Do("req", func() any {
			if leader {
				close(started)
				<-release
				panic("boom")
			}
			own.Add(1)
			return "late"
		})
	}
	wg.Add(1)
	go call(true)
	<-started
	wg.Add(callers)
	for i := 0; i < callers; i++ {
		go call(false)
	}
	time.Sleep(20 * time.Millisecond) // let the callers pile up as waiters
	close(release)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("callers still blocked 10s after the leader panicked")
	}
	if got := panics.Load() + own.Load(); got != callers+1 || panics.Load() < 1 {
		t.Fatalf("%d callers saw the panic and %d computed, want %d in all, the leader panicking", panics.Load(), own.Load(), callers+1)
	}
	ran := false
	if v, shared := c.Do("req", func() any { ran = true; return "again" }); !ran || shared || v != "again" {
		t.Fatalf("after the panic the key returned %v (shared %t, ran %t), want a fresh run", v, shared, ran)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("a cache of capacity 0 kept %d values", st.Entries)
	}
}

// TestCoalescingKeepsNothing: a capacity-0 cache shares one computation
// among concurrent callers only; once it returns, the next call runs again.
func TestCoalescingKeepsNothing(t *testing.T) {
	c := NewCache(0)
	release := make(chan struct{})
	var runs atomic.Int64
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Do("req", func() any { runs.Add(1); <-release; return 1 })
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if st := c.Stats(); st.Hits+st.Misses != 4 || st.Misses != runs.Load() || st.Entries != 0 {
		t.Fatalf("stats %+v after 4 calls and %d runs", st, runs.Load())
	}
	if _, shared := c.Do("req", func() any { return 2 }); shared {
		t.Fatal("a completed call was shared with a later caller")
	}
}

func TestMetricsSnapshot(t *testing.T) {
	m := NewMetrics()
	for i := 1; i <= 100; i++ {
		m.RecordSuccess(time.Duration(i)*time.Millisecond, 1000, float64(i), 2)
	}
	m.RecordFailure(time.Millisecond)
	m.RecordShed()
	s := m.Snapshot()
	if s.Completed != 100 || s.Failed != 1 || s.Shed != 1 {
		t.Fatalf("counts wrong: %+v", s)
	}
	if s.TotalBits != 100*1000 || s.MaxLoadBits != 100 || s.TotalRounds != 200 {
		t.Fatalf("aggregates wrong: %+v", s)
	}
	// 101 samples total; p50 should land mid-range and p99 near the top.
	if s.LatencyP50 < 40*time.Millisecond || s.LatencyP50 > 60*time.Millisecond {
		t.Fatalf("p50 = %v, want ~50ms", s.LatencyP50)
	}
	if s.LatencyP99 < 95*time.Millisecond {
		t.Fatalf("p99 = %v, want >= 95ms", s.LatencyP99)
	}
	if s.LatencyMax != 100*time.Millisecond {
		t.Fatalf("max = %v, want 100ms", s.LatencyMax)
	}
	if s.Throughput <= 0 {
		t.Fatalf("throughput = %v, want > 0", s.Throughput)
	}
}

func TestCacheStatsHitRate(t *testing.T) {
	var s CacheStats
	if s.HitRate() != 0 {
		t.Fatal("empty hit rate should be 0")
	}
	s = CacheStats{Hits: 3, Misses: 1}
	if got := s.HitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
}
