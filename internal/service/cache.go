package service

import (
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

// Cache is a bounded, concurrency-safe, keyed artifact cache with
// single-flight computation: concurrent callers asking for the same absent
// key share one computation instead of racing to duplicate it (plan and
// statistics preparation is exactly the work the service exists to
// amortize, so computing it twice under a thundering herd would defeat the
// point). Eviction is FIFO by insertion order — the artifacts cached here
// are tiny next to the databases they describe, so recency tracking isn't
// worth the bookkeeping.
type Cache struct {
	mu       sync.Mutex
	entries  map[string]*cacheEntry
	order    []string // insertion order, for FIFO eviction
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

// NewCache returns a cache holding at most capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{entries: make(map[string]*cacheEntry), capacity: capacity}
}

// GetOrCompute returns the value cached under key, computing and storing it
// with compute on a miss. Exactly one caller runs compute per absent key;
// the others block until it finishes and share the result. A panicking
// compute removes the entry (so a later call may retry) and re-panics in
// the computing caller AND in every waiter, so all callers observe the same
// failure instead of a nil value.
func (c *Cache) GetOrCompute(key string, compute func() any) any {
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
		return e.value
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.entries[key] = e
	c.order = append(c.order, key)
	c.evictLocked()
	c.mu.Unlock()
	c.misses.Add(1)

	defer func() {
		if r := recover(); r != nil {
			// compute panicked: drop the placeholder (map AND order, so the
			// key cannot occupy two order slots after a retry), release the
			// waiters with the panic value, and re-panic here.
			e.panicked = r
			c.mu.Lock()
			if c.entries[key] == e {
				delete(c.entries, key)
				c.removeFromOrderLocked(key)
			}
			c.mu.Unlock()
			close(e.ready)
			//lint:allow panicdiscipline re-panic of the recovered compute panic, already classified at its original site
			panic(r)
		}
	}()
	e.value = compute()
	close(e.ready)
	return e.value
}

// removeFromOrderLocked deletes the first occurrence of key from the FIFO
// order slice (rare paths only: panic cleanup and targeted purges).
func (c *Cache) removeFromOrderLocked(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			return
		}
	}
}

// evictLocked drops oldest entries until within capacity. In-flight entries
// may be evicted from the map (waiters already hold the entry pointer and
// still get their value; the cache just forgets it early).
func (c *Cache) evictLocked() {
	for len(c.entries) > c.capacity && len(c.order) > 0 {
		oldest := c.order[0]
		c.order = c.order[1:]
		if _, ok := c.entries[oldest]; ok {
			delete(c.entries, oldest)
			c.evictions.Add(1)
		}
	}
}

// Len returns the current number of entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// PurgeMatching drops every entry whose key contains substr — used when a
// database is invalidated: its old version tag makes the entries
// unreachable anyway, but dropping them frees potentially large layouts
// immediately instead of letting them squat in the FIFO until evicted.
func (c *Cache) PurgeMatching(substr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.order[:0]
	for _, k := range c.order {
		if strings.Contains(k, substr) {
			delete(c.entries, k)
		} else {
			kept = append(kept, k)
		}
	}
	c.order = kept
}

// Stats returns a snapshot of hit/miss/eviction counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Entries:   n,
		Evictions: c.evictions.Load(),
	}
}
