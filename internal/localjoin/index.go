package localjoin

import (
	"math/bits"
	"sync"

	"mpcquery/internal/data"
	"mpcquery/internal/hashing"
	"mpcquery/internal/obs"
)

// atomIndex is the kernel's hash index over one relation: tuples bucketed by
// the values of the key columns (the atom's variables already bound when the
// atom joins), stored as an open-addressed slot table with intra-slot
// chaining. Tuple indices, not tuple copies, are chained, and chains iterate
// in ascending tuple order, so probing reproduces the baseline evaluator's
// match order exactly. Tuples that disagree with themselves on repeated
// variables of the atom are filtered at build time and never enter a chain.
//
// There is no string key materialization: the probe hashes raw int64 values
// (hashing.Combine) and resolves hash collisions by comparing the key
// columns against the candidate tuple in place.
type atomIndex struct {
	arity   int
	keyCols []int32 // relation column of each key variable (first occurrence)
	vals    []int64 // flat row-major tuple storage (view or owned copy)
	head    []int32 // slot -> first chained tuple index + 1 (0 = empty)
	next    []int32 // tuple index + 1 -> next chained tuple index + 1
	mask    uint64
	keybuf  []int64 // build-time key gather buffer
}

// hashSeed is the starting state for key hashing; build and probe must use
// the identical chain of hashing.Combine calls.
const hashSeed = 0x51a0f3c2b44e9d17

func hashKey(key []int64) uint64 {
	h := uint64(hashSeed)
	for _, v := range key {
		h = hashing.Combine(h, uint64(v))
	}
	return h
}

// build (re)constructs the index over rel. keyCols are the relation columns
// forming the probe key (possibly empty: every consistent tuple lands in one
// chain — the cartesian step). eqPairs are the column pairs that must agree
// for a tuple to be self-consistent, precomputed once per atom. When
// copyVals is set the index snapshots the relation's values into its own
// storage, detaching it from later mutation of rel — required for indexes
// published to a shared IndexCache over per-worker fragment buffers, which
// are recycled underneath them.
func (ix *atomIndex) build(rel *data.Relation, keyCols []int, eqPairs [][2]int, copyVals bool) {
	m := rel.NumTuples()
	ix.arity = rel.Arity
	ix.keyCols = ix.keyCols[:0]
	for _, c := range keyCols {
		ix.keyCols = append(ix.keyCols, int32(c))
	}
	if copyVals {
		ix.vals = append(ix.vals[:0], rel.Vals()...)
	} else {
		ix.vals = rel.Vals()
	}

	size := 1
	if m > 0 {
		size = 1 << bits.Len(uint(2*m-1)) // next power of two ≥ 2m
	}
	if cap(ix.head) < size {
		ix.head = make([]int32, size)
	} else {
		ix.head = ix.head[:size]
		for i := range ix.head {
			ix.head[i] = 0
		}
	}
	if cap(ix.next) < m+1 {
		ix.next = make([]int32, m+1)
	} else {
		ix.next = ix.next[:m+1]
	}
	ix.mask = uint64(size - 1)

	if len(ix.keyCols) == 1 && len(eqPairs) == 0 {
		ix.chainOne()
	} else {
		ix.chainKeys(eqPairs)
	}
}

// chainOne chains the tuples of an index with exactly one key column and no
// repeated variable — most builds — hashing the key column in place
// (hashKey of one value), as matchOne probes it. The slots and chains are
// chainKeys'.
func (ix *atomIndex) chainOne() {
	vals, head, next, mask := ix.vals, ix.head, ix.next, ix.mask
	arity, kc := ix.arity, int(ix.keyCols[0])
	for i := len(next) - 2; i >= 0; i-- {
		slot := hashing.Combine(hashSeed, uint64(vals[i*arity+kc])) & mask
		next[i+1] = head[slot]
		head[slot] = int32(i + 1)
	}
}

// chainKeys chains the self-consistent tuples of any index. Tuples are
// inserted descending with chain prepend: each slot's chain then iterates
// tuples in ascending index order, matching the baseline's per-key match
// order (which multiset-insensitive callers never see, but the
// order-sensitive Report.Fingerprint does).
func (ix *atomIndex) chainKeys(eqPairs [][2]int) {
	arity := ix.arity
	nk := len(ix.keyCols)
	if cap(ix.keybuf) < nk {
		ix.keybuf = make([]int64, nk)
	}
	key := ix.keybuf[:nk]
	for i := len(ix.next) - 2; i >= 0; i-- {
		base := i * arity
		ok := true
		for _, p := range eqPairs {
			if ix.vals[base+p[0]] != ix.vals[base+p[1]] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for t, kc := range ix.keyCols {
			key[t] = ix.vals[base+int(kc)]
		}
		slot := hashKey(key) & ix.mask
		ix.next[i+1] = ix.head[slot]
		ix.head[slot] = int32(i + 1)
	}
}

// indexKey identifies one shareable index build: the atom being joined, the
// caller-supplied id of the fragment under it, and the signature of the key
// columns (the same fragment joins under different key sets when per-server
// greedy orders differ). The atom is its index in the query, not its name:
// two atoms over one relation are routed differently and hold different
// fragments under the same id.
type indexKey struct {
	atom int
	id   uint64
	sig  uint64
}

// colSig digests the key-column layout of an index build. The atom's
// arity and repeated-variable pairs also shape a build, but the atom index in
// the key already fixes them for the one query a cache serves.
func colSig(keyCols []int) uint64 {
	h := uint64(0x7be3_55c1_9a04_d6ef)
	for _, c := range keyCols {
		h = hashing.Combine(h, uint64(c))
	}
	return h
}

// IndexCache shares atom-index builds across the servers of one computation
// phase. HyperCube grids replicate each relation fragment along the
// dimensions its atom does not constrain, so whole slices of the grid receive
// byte-identical fragments and would otherwise rebuild the same index. Which
// servers those are is known from the grid before a tuple moves
// (hashing.Route.BaseOf), so the cache never looks at fragment values: builds
// are keyed by (atom, fragment id, key-column signature), the id supplied per
// server through a Shared handle, and every later server of a subcube reuses
// the first build.
//
// A cache is scoped to one computation phase (one round's local evaluation)
// of one query and must not outlive it: cached indexes snapshot a fragment's
// contents, or read them in place when the fragment is a view (data.Relation
// .IsView), which must then stay unchanged for the phase; and the ids are only
// meaningful for that round's routes. It is safe for concurrent use by the
// phase's workers.
type IndexCache struct {
	mu sync.Mutex
	m  map[indexKey]*cacheEntry

	servers int // servers of the phase's cluster, for the fragment observer

	hits, misses int
}

// cacheEntry is one single-flight slot: the first worker to claim a key
// builds into it and closes ready; later workers block on ready instead of
// duplicating the O(m) build — at the start of a phase every worker hits
// the same hot keys simultaneously, exactly the case the cache targets.
type cacheEntry struct {
	ready    chan struct{} // closed when ix is set (or build panicked)
	ix       *atomIndex
	panicked any // non-nil when build panicked; waiters re-panic with it
}

// NewIndexCache returns an empty cache for one computation phase.
func NewIndexCache() *IndexCache {
	return &IndexCache{m: make(map[indexKey]*cacheEntry)}
}

// Shared is one server's handle on the phase's IndexCache: the cache plus
// the server's fragment id for every atom. Two servers may present the same
// non-zero id for atom j only if their atom-j fragments are byte-identical;
// id 0 means "unique by construction" — that atom's index is built in the
// worker's private scratch, as a view of the fragment, with no cache
// traffic. A nil *Shared shares nothing.
type Shared struct {
	cache  *IndexCache
	server int
	ids    []uint64
}

// Share returns the scratch's handle on cache for one server of block b,
// whose atom j reached it through b.Routes[j]: the id of atom j is the
// subcube of b.Routes[j] the server lies in, named by the cluster-wide id of
// its base server. A subcube of one server (a route with a single offset)
// gets id 0, as must every atom that reaches the server by any other way than
// b.Routes[j]. The handle is valid until the scratch's next Share.
func (s *Scratch) Share(cache *IndexCache, b *hashing.Block, server int) *Shared {
	s.shared.cache, s.shared.server = cache, server
	s.shared.ids = s.shared.ids[:0]
	for _, r := range b.Routes {
		id := uint64(0)
		if len(r.Offsets()) > 1 {
			id = uint64(b.Offset+r.BaseOf(server-b.Offset)) + 1
		}
		s.shared.ids = append(s.shared.ids, id)
	}
	return &s.shared
}

// id returns atom's fragment id, 0 without a handle.
func (sh *Shared) id(atom int) uint64 {
	if sh == nil {
		return 0
	}
	return sh.ids[atom]
}

// getOrBuild returns the index for k, invoking build exactly once per key
// across all workers (single flight). build must not re-enter the cache. If
// build panics, the builder and every worker waiting on k panic with its
// value, instead of the waiters blocking for good.
func (c *IndexCache) getOrBuild(k indexKey, build func() *atomIndex) *atomIndex {
	c.mu.Lock()
	if e, ok := c.m[k]; ok {
		c.hits++
		c.mu.Unlock()
		<-e.ready
		if e.panicked != nil {
			//lint:allow panicdiscipline re-panic of the builder's panic so every waiter observes the original failure
			panic(e.panicked)
		}
		return e.ix
	}
	e := &cacheEntry{ready: make(chan struct{})}
	c.m[k] = e
	c.misses++
	c.mu.Unlock()
	defer func() {
		if r := recover(); r != nil {
			e.panicked = r
			close(e.ready)
			//lint:allow panicdiscipline re-panic of the recovered build panic, already classified at its original site
			panic(r)
		}
	}()
	e.ix = build()
	close(e.ready)
	return e.ix
}

// Stats returns the cache's hit/miss counters (builds = misses). It is for
// observability and tests; calling it concurrently with the phase is safe.
func (c *IndexCache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Kernel index-cache totals in the process-wide registry, fed by Publish
// once per computation phase — the kernel's inner loops never touch them.
var (
	obsCacheHits   = obs.Default().Counter("mpc_kernel_index_cache_hits_total")
	obsCacheMisses = obs.Default().Counter("mpc_kernel_index_cache_misses_total")
)

// Publish flushes the cache's final hit/miss totals into the process-wide
// registry and, when ct is a live trace sink, into the run's trace.
// Strategies call it once, after the computation phase the cache served.
// The totals are deterministic for a seeded run: single-flight keying
// makes misses exactly the number of distinct (atom, fragment) keys,
// regardless of worker scheduling.
func (c *IndexCache) Publish(ct *obs.ClusterTrace) {
	hits, misses := c.Stats()
	obsCacheHits.Add(int64(hits))
	obsCacheMisses.Add(int64(misses))
	ct.ObserveKernelCache(int64(hits), int64(misses))
}
