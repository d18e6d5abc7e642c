package localjoin

import (
	"mpcquery/internal/aggregate"
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
	phase(cluster, q, layout, fn).Release()
}

// phase is Phase that hands the caller the phase's scratches, still holding
// what fn left in them; the caller releases them.
func phase(cluster *engine.Cluster, q *query.Query, layout hashing.Layout,
	fn func(server int, sc *Scratch, frags []*data.Relation, sh *Shared)) *WorkerScratches {
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
	cache.Publish(cluster.Trace())
	return scratches
}

// outSpan is where one server's output rows lie: values [lo, hi) of the
// output arena of the scratch that evaluated it.
type outSpan struct {
	sc     *Scratch
	lo, hi int
}

// Output runs the computation phase of a one-round layout and the tail that
// follows it, and returns q's output together with the bits pre-shuffle
// aggregation saved (0 without agg).
//
// A nil agg is the plain join: every server's rows, in ascending server
// order, gathered from the processes that own them (Cluster.Gather). The
// last join step of each server writes its rows straight onto the end of
// its worker's output arena, and the gather reads every server's span of
// those arenas in place before the scratches go back to the pool: each
// output value is written once by the join and copied once into the
// result. With env.Sink set the output is never materialized nor gathered:
// each owned server's rows stream through this process's sink in chunks of
// env.StreamChunk rows (<= 0: engine.DefaultStreamChunk) and Output returns
// nil; the rows and their order are the same either way.
//
// A non-nil agg turns the output into the canonical aggregate relation
// (aggregateOutput), materialized whatever env.Sink says: it costs one more
// round, aggregate-shuffle.
func Output(cluster *engine.Cluster, q *query.Query, env engine.Env, layout hashing.Layout, agg *aggregate.Plan) (*data.Relation, float64) {
	if agg != nil {
		return aggregateOutput(cluster, q, layout, agg)
	}
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
		return nil, 0
	}
	p := cluster.P()
	spans := make([]outSpan, p)
	scratches := phase(cluster, q, layout, func(s int, sc *Scratch, frags []*data.Relation, sh *Shared) {
		lo, hi := sc.appendOutput(q, frags, sh)
		spans[s] = outSpan{sc, lo, hi}
	})
	defer scratches.Release()
	views := make([]data.Relation, p)
	parts := make([]*data.Relation, p)
	for s, sp := range spans {
		if sp.hi > sp.lo {
			views[s] = data.Relation{Name: q.Name, Arity: arity}
			views[s].SetView(sp.sc.arena.Vals()[sp.lo:sp.hi])
			parts[s] = &views[s]
		}
	}
	return cluster.Gather(q.Name, arity, parts), 0
}
