package service

import (
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// CacheStats is a point-in-time snapshot of a cache's effectiveness.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Entries   int   `json:"entries"`
	Evictions int64 `json:"evictions"`
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is the package's single-flight primitive plus a bounded FIFO of
// completed values. Concurrent callers asking for the same absent key share
// one computation instead of racing to duplicate it (plan and statistics
// preparation is exactly the work the service exists to amortize, so
// computing it twice under a thundering herd would defeat the point).
// Completed values are kept up to the capacity and evicted oldest first —
// the artifacts cached here are tiny next to the databases they describe,
// so recency tracking isn't worth the bookkeeping.
//
// A Cache of capacity 0 keeps nothing: a key is forgotten as soon as its
// computation returns, so it coalesces concurrent duplicates only — sound
// even for work with effects that must happen at least once per burst
// (metering a query's communication) but are wasteful to repeat within one.
type Cache struct {
	mu       sync.Mutex
	entries  map[string]*cacheEntry // in flight, or completed and kept
	order    []string               // kept keys in completion order, for FIFO eviction
	capacity int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type cacheEntry struct {
	ready    chan struct{} // closed when value is set (or compute panicked)
	value    any
	panicked any // non-nil when compute panicked; waiters re-panic with it
}

// NewCache returns a cache keeping at most capacity completed values; 0
// (or less) keeps none.
func NewCache(capacity int) *Cache {
	return &Cache{entries: make(map[string]*cacheEntry), capacity: max(capacity, 0)}
}

// Do returns the value for key, computing it with compute unless it is kept
// or already being computed; shared reports that another caller's
// computation produced it. Exactly one caller runs compute per absent key;
// the others block until it finishes and share the result (read-only). A
// panicking compute forgets the key (so a later call runs again) and
// re-panics in the computing caller AND in every waiter, so all callers
// observe the same failure instead of a nil value.
func (c *Cache) Do(key string, compute func() any) (v any, shared bool) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.ready
		if e.panicked != nil {
			c.misses.Add(1)
			//lint:allow panicdiscipline re-panic of the computing caller's panic so every waiter observes the original failure
			panic(e.panicked)
		}
		c.hits.Add(1)
		return e.value, true
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)

	completed := false
	defer func() {
		if !completed {
			e.panicked = recover()
		}
		// Keep the value, or forget the key — unless a purge already
		// dropped it (a later caller may own the key by now).
		c.mu.Lock()
		if c.entries[key] == e {
			if completed && c.capacity > 0 {
				c.order = append(c.order, key)
				c.evictLocked()
			} else {
				delete(c.entries, key)
			}
		}
		c.mu.Unlock()
		close(e.ready)
		if e.panicked != nil {
			//lint:allow panicdiscipline re-panic of the recovered compute panic, already classified at its original site
			panic(e.panicked)
		}
	}()
	e.value = compute()
	completed = true
	return e.value, false
}

// evictLocked drops the oldest kept values until within capacity. In-flight
// entries are not in the order, so they are never evicted.
func (c *Cache) evictLocked() {
	for len(c.order) > c.capacity {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
		c.evictions.Add(1)
	}
}

// PurgeMatching drops every entry whose key contains substr — used when a
// database is invalidated: its old version tag makes the entries
// unreachable anyway, but dropping them frees potentially large layouts
// immediately instead of letting them squat in the FIFO until evicted. An
// in-flight computation of a purged key still answers its waiters, and its
// value is not kept.
func (c *Cache) PurgeMatching(substr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	maps.DeleteFunc(c.entries, func(k string, _ *cacheEntry) bool { return strings.Contains(k, substr) })
	c.order = slices.DeleteFunc(c.order, func(k string) bool { return strings.Contains(k, substr) })
}

// Stats returns a snapshot of the counters; Entries counts kept values.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.order)
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Entries:   n,
		Evictions: c.evictions.Load(),
	}
}
