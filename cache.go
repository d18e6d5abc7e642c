package mpcquery

import (
	"fmt"
	"strings"

	"mpcquery/internal/service"
)

// execCache carries a Service's artifact cache into one run, together with
// the key prefix that scopes every entry to (query shape, database
// identity+version, per-atom sizes, server count). A nil *execCache — the
// plain Run path — disables caching entirely.
//
// The cache holds two kinds of artifact under distinct key suffixes:
//
//   - artifacts of planning — HyperCube share allocations (LP solutions),
//     skew layouts (heavy-hitter blocks, pattern grids), multi-round plan
//     trees, advisor option lists. These are free in the paper's model
//     (servers know the statistics), so reusing them changes no Report
//     field.
//   - results of statistics *protocols* that cost genuine communication
//     rounds (the sampling round of SkewedStarSampled). Reusing one skips
//     the recomputation but the strategy must still charge its bits to the
//     Report via skew.AddStatsCharges — cached, yet charged. Tests pin this
//     down by asserting cached and uncached Reports are bit-identical.
type execCache struct {
	cache *service.Cache

	dbTag  string // "db<id>.v<version>" from the owning Service
	prefix string // composed per Run; empty until composePrefix
}

// composePrefix derives the cache-key prefix for one validated run. The
// per-atom tuple counts act as a cheap stats fingerprint: appends to a
// relation change its size and thus the key, so grown databases never hit
// stale entries even without an explicit InvalidateDatabase (in-place value
// edits still need the explicit call — see Service.InvalidateDatabase).
func (ec *execCache) composePrefix(q *Query, db *Database, servers int) *execCache {
	var b strings.Builder
	b.WriteString(q.ShapeKey())
	fmt.Fprintf(&b, "|%s|n%d", ec.dbTag, db.N)
	for _, a := range q.Atoms {
		rel, ok := db.Relations[a.Name]
		if !ok {
			// An atom without a backing relation (a self-join view resolved
			// later) has no size to fingerprint; leave the prefix empty so
			// this run simply does not cache rather than risk a stale hit.
			cp := *ec
			cp.prefix = ""
			return &cp
		}
		fmt.Fprintf(&b, "|%d", rel.NumTuples())
	}
	fmt.Fprintf(&b, "|p%d", servers)
	cp := *ec
	cp.prefix = b.String()
	return &cp
}

// cached returns the cache entry for this run's prefix plus the
// strategy-specific suffix, computing it on a miss. With caching off (or
// outside a Service) it simply computes.
func (ctx ExecContext) cached(suffix string, compute func() any) any {
	ec := ctx.cache
	if ec == nil || ec.prefix == "" {
		return compute()
	}
	v, _ := ec.cache.Do(ec.prefix+"|"+suffix, compute)
	return v
}
