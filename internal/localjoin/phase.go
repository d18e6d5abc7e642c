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
// them (Cluster.Gather). With env.Sink set the output is never
// materialized nor gathered: each owned server's rows stream through this
// process's sink in chunks of env.StreamChunk rows (<= 0:
// engine.DefaultStreamChunk) and Output returns nil; the rows and their
// order are the same either way.
func Output(cluster *engine.Cluster, q *query.Query, env engine.Env, layout hashing.Layout) *data.Relation {
	arity := q.NumVars()
	if sink := env.Sink; sink != nil {
		chunk := env.StreamChunk
		if chunk <= 0 {
			chunk = engine.DefaultStreamChunk
		}
		Phase(cluster, q, layout, func(s int, sc *Scratch, frags []*data.Relation, sh *Shared) {
			sc.EvaluateAtomsStream(q, frags, sh, chunk, func(vals []int64) {
				if len(vals) > 0 {
					sink.Chunk(s, arity, vals)
				}
			})
		})
		return nil
	}
	parts := make([]*data.Relation, cluster.P())
	Phase(cluster, q, layout, func(s int, sc *Scratch, frags []*data.Relation, sh *Shared) {
		parts[s] = sc.EvaluateAtoms(q, frags, sh)
	})
	return cluster.Gather(q.Name, arity, parts)
}
