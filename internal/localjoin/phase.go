package localjoin

import (
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/hashing"
	"mpcquery/internal/query"
)

// Phase is the computation phase of a round (Section 2.1: local work reads
// only what the server received). For every owned server of cluster with a
// non-empty inbox it hands fn the worker's scratch, the server's atom
// fragments read from its inbox (message kinds are atom indices) and the
// server's handle on the phase's index cache, built from the block of layout
// that holds the server (nil for a server outside every block: it received
// its tuples some other way and shares nothing). The scratches are released
// and the cache's totals published once, after the phase. fn runs
// concurrently for different servers.
func Phase(cluster *engine.Cluster, q *query.Query, layout hashing.Layout,
	fn func(server int, sc *Scratch, frags []*data.Relation, sh *Shared)) {
	cache := NewIndexCache()
	cache.servers = cluster.P()
	scratches := NewWorkerScratches()
	cluster.Compute(func(s int, ib *engine.Inbox, w int) {
		if ib.NumTuples() == 0 {
			return
		}
		sc := scratches.Worker(w)
		var sh *Shared
		if i := layout.Find(s); i >= 0 {
			sh = sc.Share(cache, layout[i], s)
		}
		fn(s, sc, sc.InboxFragments(q, ib), sh)
	})
	scratches.Release()
	cache.Publish(cluster.Trace())
}

// Output runs Phase as a plain join and returns q's output: every server's
// rows, in ascending server order, gathered from the processes that own
// them (Cluster.Gather). keep, when non-nil, gives a server's output-row
// predicate (a nil predicate keeps every row) — the per-group output
// classes of the skew algorithms. With env.Sink set the output is never
// materialized nor gathered: each owned server's rows stream through this
// process's sink in chunks of env.StreamChunk rows (<= 0:
// engine.DefaultStreamChunk) and Output returns nil; the rows and their
// order are the same either way.
func Output(cluster *engine.Cluster, q *query.Query, env engine.Env, layout hashing.Layout,
	keep func(server int) func(row []int64) bool) *data.Relation {
	arity := q.NumVars()
	keepAt := func(s int) func([]int64) bool {
		if keep == nil {
			return nil
		}
		return keep(s)
	}
	if sink := env.Sink; sink != nil {
		chunk := env.StreamChunk
		if chunk <= 0 {
			chunk = engine.DefaultStreamChunk
		}
		Phase(cluster, q, layout, func(s int, sc *Scratch, frags []*data.Relation, sh *Shared) {
			k := keepAt(s)
			sc.EvaluateAtomsStream(q, frags, sh, chunk, func(vals []int64) {
				if vals = compact(vals, arity, k); len(vals) > 0 {
					sink.Chunk(s, arity, vals)
				}
			})
		})
		return nil
	}
	parts := make([]*data.Relation, cluster.P())
	Phase(cluster, q, layout, func(s int, sc *Scratch, frags []*data.Relation, sh *Shared) {
		out := sc.EvaluateAtoms(q, frags, sh)
		if k := keepAt(s); k != nil {
			out = data.FromVals(q.Name, arity, compact(out.Vals(), arity, k))
		}
		parts[s] = out
	})
	return cluster.Gather(q.Name, arity, parts)
}

// compact moves the rows of vals that keep accepts to its front, in order,
// and returns them; a nil keep accepts every row.
func compact(vals []int64, arity int, keep func(row []int64) bool) []int64 {
	if keep == nil {
		return vals
	}
	n := 0
	for off := 0; off < len(vals); off += arity {
		if row := vals[off : off+arity]; keep(row) {
			n += copy(vals[n:], row)
		}
	}
	return vals[:n]
}
