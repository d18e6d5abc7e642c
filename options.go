package mpcquery

import (
	"context"

	"mpcquery/internal/engine"
	"mpcquery/internal/obs"
	"mpcquery/internal/transport/fault"
)

// RunOption configures one Run invocation. Options follow the functional
// options pattern so call sites read like the sentence they mean:
//
//	Run(q, db, WithServers(64), WithStrategy(SkewedGeneric()))
type RunOption func(*runConfig)

// runConfig collects the knobs shared by every strategy; it is materialized
// into the ExecContext handed to Strategy.Execute.
type runConfig struct {
	servers     int
	seed        int64
	strategy    Strategy
	loadCapBits float64
	roundBudget int
	aggregate   *AggregateSpec // nil = plain join run
	aggPushdown bool
	cache       *execCache        // set by Service.Run; nil = no caching
	net         engine.Transport  // set by WithRuntime; nil = in-process delivery
	trace       *obs.Trace        // set by WithTrace; nil = tracing off
	ctx         context.Context   // set by WithContext; nil = unbounded
	faults      *fault.Plan       // set by WithFaultInjection; nil = no injection
	recovery    int               // set by WithRecovery; 0 = fail on first peer loss
	streaming   bool              // set by WithStreaming; false = barrier rounds
	streamChunk int               // set by tests only; 0 = engine.DefaultStreamChunk
	sink        engine.OutputSink // set by WithOutputSink; nil = materialize output
}

// resolve applies opts, in order, over the defaults.
func resolve(opts []RunOption) runConfig {
	cfg := runConfig{servers: 64, seed: 1, aggPushdown: true}
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	return cfg
}

// WithServers sets the server budget p (default 64). Skew-aware strategies
// may use Θ(p) servers, a constant factor more, as the paper allows.
func WithServers(p int) RunOption { return func(c *runConfig) { c.servers = p } }

// WithSeed sets the hash/rng seed (default 1). Loads — never correctness —
// depend on it.
func WithSeed(seed int64) RunOption { return func(c *runConfig) { c.seed = seed } }

// WithStrategy selects the algorithm (default HyperCube()). See Strategy
// for the catalogue.
func WithStrategy(s Strategy) RunOption { return func(c *runConfig) { c.strategy = s } }

// WithLoadCap declares a maximum per-server load in bits (Section 2.1's
// abort semantics): if any server receives more than capBits in any round,
// the Report's Aborted flag is set. 0 (the default) means no cap. Every
// strategy honors the cap — one-round HyperCube variants, the skew-aware
// algorithms (including the sampled-statistics round), and each round of
// the multi-round plans.
func WithLoadCap(bits float64) RunOption { return func(c *runConfig) { c.loadCapBits = bits } }

// WithRoundBudget caps the rounds the Auto strategy may spend (0 = default
// = unlimited); other strategies ignore it.
func WithRoundBudget(rounds int) RunOption { return func(c *runConfig) { c.roundBudget = rounds } }

// WithAggregate turns the run into an aggregate query: op over variable of
// (must be "" for AggCount), grouped by the given variables (none = global
// aggregate). The Report's Output becomes the sorted (group key..., value)
// relation and TotalBits includes the aggregate-shuffle round. Every
// built-in strategy supports it: the one-round ones fold on the servers of
// their layout, the multi-round plans at their root node. An external
// Strategy implementation is refused with ErrAggregateUnsupported before it
// executes.
func WithAggregate(op AggregateOp, of string, groupBy ...string) RunOption {
	return func(c *runConfig) {
		c.aggregate = &AggregateSpec{Op: op, Of: of, GroupBy: append([]string(nil), groupBy...)}
	}
}

// WithAggregatePushdown toggles pre-shuffle partial aggregation (default
// on): senders fold same-group tuples before routing them, shrinking the
// aggregate shuffle — Report.AggregateBitsSaved meters the difference. The
// final aggregate values are identical either way; only communication
// changes. Ignored without WithAggregate.
func WithAggregatePushdown(on bool) RunOption { return func(c *runConfig) { c.aggPushdown = on } }

// WithContext bounds the run with a request context. Distributed round
// delivery honors its cancellation and deadline while waiting on remote
// frames — a wedged peer fails the run with the context's error instead of
// outliving the request. A nil ctx (the default) leaves rounds bounded only
// by the runtime's RoundTimeout. In-process runs are unaffected (local
// rounds never block on a peer).
func WithContext(ctx context.Context) RunOption { return func(c *runConfig) { c.ctx = ctx } }

// WithFaultInjection installs a deterministic fault schedule (see
// FaultPlan) on the run's transport: seeded frame drops, delays, duplicate
// deliveries, connection resets, a scheduled rank crash, and slow-peer
// straggling. The schedule is a pure function of the plan's seed and the
// fault site, so chaos runs are exactly reproducible. All ranks of a
// distributed run must install the same plan. Nil removes nothing and
// injects nothing.
func WithFaultInjection(p *FaultPlan) RunOption { return func(c *runConfig) { c.faults = p } }

// WithStreaming toggles streaming execution (default off). In process,
// rounds deliver in bounded chunks instead of materializing every sender's
// whole batches (each tuple staged once and landed once per target, the
// barrier round's PeakBufferedBytes): full chunks flush mid-emission. Over a
// distributed runtime, streaming streams the sink's output, and rounds
// travel as in a barrier run, cut into frames only at the frame body cap.
// The Report is bit-identical to a barrier run (same Fingerprint, same
// TotalBits, same trace structure); only wall-clock and
// Report.PeakBufferedBytes change. Composes with every strategy, both
// runtimes, fault injection, and recovery.
func WithStreaming(on bool) RunOption { return func(c *runConfig) { c.streaming = on } }

// WithOutputSink streams the query output into sink as row-major chunks
// instead of materializing it — the escape hatch for outputs larger than
// memory (Report.Output stays nil; see OutputSink for the call contract).
// Honored by every join strategy; a multi-round plan streams its root node;
// aggregates materialize their (small, folded) output regardless. A sink does not change any
// fingerprinted accounting, with or without WithStreaming. Under
// WithRuntime, a rank's sink receives the chunks of the servers that rank
// owns, nothing is gathered across the group, and the ranks' sinks
// together receive every server's chunks.
func WithOutputSink(sink OutputSink) RunOption { return func(c *runConfig) { c.sink = sink } }

// WithRecovery enables the run-level recovery supervisor: when a
// distributed round fails with ErrPeerUnavailable, the run health-probes
// its peers, rewinds the session (abandoned-attempt accounting moves to
// WireStats.AbandonedBytes — never double-billed), waits out a seeded-
// jitter backoff, and deterministically replays from round 0, up to
// maxReplays times. Replayed runs are bit-identical to an undisturbed run
// (Report.Fingerprint matches; Report.Recovered counts the abandoned
// attempts). 0 — the default — fails on the first peer loss, as before.
func WithRecovery(maxReplays int) RunOption { return func(c *runConfig) { c.recovery = maxReplays } }
