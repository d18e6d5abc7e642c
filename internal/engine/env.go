package engine

import (
	"context"

	"mpcquery/internal/obs"
)

// Env bundles the per-run execution environment a strategy threads down to
// every cluster it creates: the delivery transport (nil = in-process), the
// trace sink (nil = tracing disabled), and the request context (nil =
// unbounded). Strategies receive one Env at the API boundary and pass it
// unchanged to NewClusterEnv, so a new environment concern never changes
// their signatures again.
type Env struct {
	Net   Transport
	Trace *obs.Trace

	// Ctx bounds distributed round delivery: the transport honors its
	// cancellation/deadline while waiting on remote frames. Local compute
	// is not preempted — rounds are short; the wire waits are what can
	// wedge.
	Ctx context.Context

	// Streaming enables chunked streaming rounds on every cluster of the
	// run (see stream.go): pipelined mid-emission flushes in-process. Over a
	// transport a round stages as in barrier mode and its records are cut
	// only at the frame body cap, so streaming streams Sink's output.
	// StreamChunk sets the chunk size in tuples, of in-process rounds and of
	// Sink's output chunks; <= 0 selects DefaultStreamChunk. Bit accounting,
	// fingerprints, and trace structure are identical to barrier mode —
	// only wall-clock and peak memory change.
	Streaming   bool
	StreamChunk int

	// Sink, when non-nil, receives the query output as row-major chunks
	// instead of a materialized relation (Report.Output stays nil) — the
	// escape hatch for outputs larger than memory. Honored by every join
	// strategy; a multi-round plan streams its root node; aggregates
	// materialize. A sink never changes the fingerprinted accounting.
	Sink OutputSink

	// Mem, when non-nil, collects the run's engine-buffer high-water
	// across all clusters — the deterministic peak-memory metric behind
	// Report.PeakBufferedBytes.
	Mem *MemGauge
}

// NewClusterEnv creates a cluster wired to the environment: delivery goes
// through env.Net (nil = in-process, as NewClusterNet) and, when env.Trace
// is set, the cluster registers itself with the trace and records a span
// per round. Cluster registration order is the trace's cluster identity;
// strategies create clusters deterministically (seeded control flow), so
// traces of seeded runs are structurally reproducible.
func NewClusterEnv(env Env, p, bitsPerValue int) *Cluster {
	c := NewClusterNet(env.Net, p, bitsPerValue)
	c.tr = env.Trace.NewCluster(p, bitsPerValue)
	c.runCtx = env.Ctx
	c.runTrace = env.Trace
	if env.Streaming {
		chunk := env.StreamChunk
		if chunk <= 0 {
			chunk = DefaultStreamChunk
		}
		c.SetStreamChunk(chunk)
	}
	c.mem = env.Mem
	return c
}

// Trace returns the cluster's trace sink, nil when tracing is disabled.
// The nil sink is valid: all its observation methods are no-ops.
func (c *Cluster) Trace() *obs.ClusterTrace { return c.tr }

// Engine totals in the process-wide registry. Bumped with one atomic op
// per round/cluster — never per tuple — so the always-on cost is
// negligible and allocation-free.
var (
	obsClustersTotal     = obs.Default().Counter("mpc_engine_clusters_total")
	obsRoundsTotal       = obs.Default().Counter("mpc_engine_rounds_total")
	obsRoundAborts       = obs.Default().Counter("mpc_engine_round_aborts_total")
	obsRecvTuplesTotal   = obs.Default().Counter("mpc_engine_recv_tuples_total")
	obsRecvBitsTotal     = obs.Default().Gauge("mpc_engine_recv_bits_total")
	obsChunkFlushesTotal = obs.Default().Counter("mpc_engine_chunk_flushes_total")
)
