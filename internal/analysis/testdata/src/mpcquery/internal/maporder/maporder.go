// Package maporder exercises the maporder analyzer: map ranges feeding
// order-sensitive sinks are flagged; collect-then-sort and map-to-map
// shapes are not.
package maporder

import (
	"sort"
	"strings"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
)

// appendLeak builds a slice in map iteration order and returns it.
func appendLeak(m map[int64]int) []int64 {
	var keys []int64
	for k := range m {
		keys = append(keys, k) // want "leaks map iteration order"
	}
	return keys
}

// collectThenSort is the sanctioned idiom: the appended slice is sorted
// before use, so the map's order never escapes.
func collectThenSort(m map[int64]int) []int64 {
	var keys []int64
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// emitInMapRange makes wire order depend on map order.
func emitInMapRange(m map[int64][]int64, em *engine.Emitter) {
	for dst, tuple := range m {
		em.EmitTuple(int(dst), tuple) // want "emission/inbox order"
	}
}

// seedInMapRange makes the cluster's initial placement order map-dependent.
func seedInMapRange(m map[int64][]int64, c *engine.Cluster) {
	for s, tuple := range m {
		c.Seed(int(s), tuple) // want "emission/inbox order"
	}
}

// fanoutInMapRange replicates tuples to their subcubes in map order: the
// bulk emits are as order-sensitive as one EmitTuple per destination.
func fanoutInMapRange(m map[int64][]int64, offsets []int, em *engine.Emitter) {
	for base, tuple := range m {
		em.EmitFanout(int(base), offsets, 0, tuple) // want "emission/inbox order"
		em.EmitRouted(nil, nil, 0, 2, tuple)        // want "emission/inbox order"
	}
}

// dealInMapRange deals whole relations round-robin in map order: the order
// of the kinds inside every seeded inbox becomes map-dependent.
func dealInMapRange(m map[int64][]int64, c *engine.Cluster) {
	for kind, vals := range m {
		c.SeedRoundRobin(4, int(kind), 2, vals) // want "emission/inbox order"
	}
}

// dealSorted is the clean counterpart: kinds dealt in ascending order.
func dealSorted(m map[int64][]int64, offsets []int, c *engine.Cluster, em *engine.Emitter) {
	for _, kind := range collectThenSort(kindsOf(m)) {
		c.SeedRoundRobin(4, int(kind), 2, m[kind])
		em.EmitFanout(int(kind), offsets, 0, m[kind])
	}
}

// kindsOf counts per key: map to map, not flagged.
func kindsOf(m map[int64][]int64) map[int64]int {
	out := make(map[int64]int, len(m))
	for k, vals := range m {
		out[k] = len(vals)
	}
	return out
}

// relationAppend makes tuple order (fingerprint-visible) map-dependent.
func relationAppend(m map[int64]int64, r *data.Relation) {
	for k, v := range m {
		r.Append(k, v) // want "relation tuple order"
	}
}

// renderPlan makes a rendered string map-dependent.
func renderPlan(m map[int64]string) string {
	var b strings.Builder
	for _, s := range m {
		b.WriteString(s) // want "the built string"
	}
	return b.String()
}

// mapToMap copies a map into a map: order-insensitive, not flagged.
func mapToMap(m map[int64]int) map[int64]int {
	out := make(map[int64]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// localAppend appends to a slice declared inside the loop: the order never
// escapes an iteration, not flagged.
func localAppend(m map[int64][]int64) int {
	n := 0
	for _, vs := range m {
		var local []int64
		local = append(local, vs...)
		n += len(local)
	}
	return n
}
