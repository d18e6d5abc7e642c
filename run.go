package mpcquery

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"mpcquery/internal/engine"
	"mpcquery/internal/localjoin"
	"mpcquery/internal/obs"
	"mpcquery/internal/transport"
	"mpcquery/internal/transport/fault"
)

// obsRunsRecovered counts runs that completed only after at least one
// recovery replay (Report.Recovered > 0).
var obsRunsRecovered = obs.Default().Counter("mpc_runs_recovered_total")

// Sentinel errors returned (wrapped) by Run; test with errors.Is.
var (
	// ErrNilQuery: Run was called with a nil query and a strategy that
	// does not carry its own (only SelfJoin does).
	ErrNilQuery = errors.New("mpcquery: nil query")
	// ErrNilDatabase: Run was called with a nil database.
	ErrNilDatabase = errors.New("mpcquery: nil database")
	// ErrMissingRelation: the database lacks a relation the query's atoms
	// reference, or holds it at the wrong arity.
	ErrMissingRelation = errors.New("missing relation")
	// ErrNoFeasibleStrategy: the Auto strategy found no option within the
	// round budget.
	ErrNoFeasibleStrategy = errors.New("no feasible strategy")
)

// StrategyError wraps a panic that escaped a strategy, so no panic ever
// crosses the public boundary; the original panic value is in Value.
type StrategyError struct {
	Strategy string
	Value    any
}

func (e *StrategyError) Error() string {
	return fmt.Sprintf("mpcquery: strategy %q panicked: %v", e.Strategy, e.Value)
}

// Run is the single entry point for executing a query on the simulated MPC
// cluster. It validates inputs, hands them to the selected Strategy
// (default HyperCube()), and returns the unified Report:
//
//	q := mpcquery.Triangle()
//	db := mpcquery.MatchingDatabase(rng, q, 10000, 1<<20)
//	rep, err := mpcquery.Run(q, db,
//		mpcquery.WithServers(64),
//		mpcquery.WithStrategy(mpcquery.SkewedTriangle()))
//
// Every algorithm of the paper is reachable here: HyperCube(),
// HyperCubeOblivious(), HyperCubeShares(...), SelfJoin(...),
// SkewedStarSampled(...), SkewedTriangle(), SkewedGeneric(), ChainPlan(ε),
// GreedyPlan(ε) and Auto(); each also runs WithAggregate. The multi-round
// plans run every node with SkewedGeneric's planner. Run never panics: any
// panic escaping a strategy is converted into a *StrategyError.
func Run(q *Query, db *Database, opts ...RunOption) (*Report, error) {
	return run(q, db, resolve(opts))
}

// run is Run's executor over resolved options; the Service's pooled
// execution calls it too.
func run(q *Query, db *Database, cfg runConfig) (*Report, error) {
	strategy := cfg.strategy
	if strategy == nil {
		strategy = HyperCube()
	}

	if q == nil {
		qp, ok := strategy.(queryProvider)
		if !ok {
			return nil, fmt.Errorf("%w (strategy %s does not provide one)", ErrNilQuery, strategy.Name())
		}
		q = qp.provideQuery()
	}
	if db == nil {
		return nil, ErrNilDatabase
	}
	if cfg.servers < 1 {
		return nil, fmt.Errorf("mpcquery: need at least one server, got %d", cfg.servers)
	}
	if q.NumAtoms() == 0 {
		return nil, fmt.Errorf("mpcquery: query %q has no atoms", q.Name)
	}
	if cfg.aggregate != nil {
		if err := cfg.aggregate.validate(q); err != nil {
			return nil, err
		}
		// Refuse here, not in the strategy: a strategy without an aggregate
		// path would otherwise execute a plain join and have its output
		// mislabeled as aggregate rows below. External Strategy
		// implementations always land here.
		if _, ok := strategy.(aggregateCapable); !ok {
			return nil, fmt.Errorf("mpcquery: %w: %s", ErrAggregateUnsupported, strategy.Name())
		}
	}
	// Strategies that carry their own query (SelfJoin) resolve relations
	// through views; everything else needs each atom present at the right
	// arity, checked here so strategies can assume a well-formed input.
	if _, selfContained := strategy.(queryProvider); !selfContained {
		for _, a := range q.Atoms {
			rel, ok := db.Relations[a.Name]
			if !ok {
				return nil, fmt.Errorf("mpcquery: %w: query %s references %q, absent from database",
					ErrMissingRelation, q, a.Name)
			}
			if rel.Arity != a.Arity() {
				return nil, fmt.Errorf("mpcquery: %w: %q has arity %d, atom %s wants %d",
					ErrMissingRelation, a.Name, rel.Arity, a, a.Arity())
			}
		}
	}

	if cfg.faults != nil {
		// Install the fault schedule: a distributed session gets it as its
		// injector; any other transport (including in-process) is wrapped so
		// the crash/straggler schedule still applies.
		cfg.net = fault.Wrap(cfg.net, cfg.faults)
	}
	if cfg.recovery > 0 {
		return runSupervised(q, db, strategy, &cfg)
	}
	return runOnce(q, db, strategy, &cfg)
}

// runOnce executes one attempt of the (already validated) run, with the
// panic boundary that keeps strategy panics and delivery failures typed.
func runOnce(q *Query, db *Database, strategy Strategy, cfg *runConfig) (rep *Report, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		// The local-join kernel signals a relation missing mid-evaluation
		// with a typed panic (its computation phase runs inside the engine's
		// parallel workers, which have no error channel). Surface it as the
		// ErrMissingRelation sentinel — the same class the pre-execution
		// validation reports — rather than as an opaque StrategyError.
		if e, ok := r.(error); ok && errors.Is(e, localjoin.ErrMissingRelation) {
			rep, err = nil, fmt.Errorf("mpcquery: %w: %v (strategy %s)", ErrMissingRelation, e, strategy.Name())
			return
		}
		// Likewise the distributed runtime: a peer failure or a closed
		// session surfaces from the engine's delivery seam as a typed panic.
		// It is an operational condition of the worker group, not a strategy
		// bug, so it keeps its sentinel (ErrPeerUnavailable /
		// ErrRuntimeClosed) instead of becoming an opaque StrategyError.
		if e, ok := r.(error); ok && (errors.Is(e, transport.ErrPeerUnavailable) || errors.Is(e, transport.ErrSessionClosed)) {
			rep, err = nil, fmt.Errorf("mpcquery: distributed delivery failed (strategy %s): %w", strategy.Name(), e)
			return
		}
		// A round that outlived its request context surfaces the context's
		// own error, so callers can errors.Is against context.Canceled /
		// DeadlineExceeded.
		if e, ok := r.(error); ok && (errors.Is(e, context.Canceled) || errors.Is(e, context.DeadlineExceeded)) {
			rep, err = nil, fmt.Errorf("mpcquery: run canceled (strategy %s): %w", strategy.Name(), e)
			return
		}
		rep, err = nil, &StrategyError{Strategy: strategy.Name(), Value: r}
	}()

	cache := cfg.cache
	if cache != nil {
		// Scope every cache key to (shape, database version, sizes, p).
		// Composed into a local, not cfg — a recovery replay must compose
		// the same prefix fresh, not stack a second one.
		cache = cache.composePrefix(q, db, cfg.servers)
	}
	// With tracing on and a distributed runtime attached, snapshot the
	// session's wire counters around the execution so the trace carries
	// this run's wire delta (frames, bytes, resends). Purely observational:
	// nothing here feeds the Report.
	var wireBefore transport.WireStats
	wireSrc, _ := cfg.net.(interface{ Stats() transport.WireStats })
	if cfg.trace != nil && wireSrc != nil {
		wireBefore = wireSrc.Stats()
	}
	// One gauge per attempt: its high-water is this attempt's engine-buffer
	// peak across all clusters, deterministic for a seeded run.
	mem := &engine.MemGauge{}
	rep, err = strategy.Execute(ExecContext{
		Query:       q,
		DB:          db,
		Servers:     cfg.servers,
		Seed:        cfg.seed,
		LoadCapBits: cfg.loadCapBits,
		RoundBudget: cfg.roundBudget,
		Aggregate:   cfg.aggregate,
		AggPushdown: cfg.aggPushdown,
		cache:       cache,
		env: engine.Env{Net: cfg.net, Trace: cfg.trace, Ctx: cfg.ctx,
			Streaming: cfg.streaming, StreamChunk: cfg.streamChunk, Sink: cfg.sink, Mem: mem},
	})
	if err != nil {
		return nil, err
	}
	rep.PeakBufferedBytes = mem.Peak()
	if cfg.trace != nil && wireSrc != nil {
		after := wireSrc.Stats()
		cfg.trace.ObserveWire(obs.WireObservation{
			DataFrames:         after.DataFrames - wireBefore.DataFrames,
			CtrlFrames:         after.CtrlFrames - wireBefore.CtrlFrames,
			WireBytes:          after.WireBytes - wireBefore.WireBytes,
			PayloadBytes:       after.PayloadBytes - wireBefore.PayloadBytes,
			BilledPayloadBytes: after.BilledPayloadBytes - wireBefore.BilledPayloadBytes,
			Redials:            after.Redials - wireBefore.Redials,
			Resends:            after.Resends - wireBefore.Resends,
		})
	}
	if cfg.aggregate != nil && rep.Aggregate == "" {
		rep.Aggregate = aggDescribe(cfg.aggregate)
	}
	if rep.Strategy == "" {
		rep.Strategy = strategy.Name()
	}
	if rep.Query == nil {
		rep.Query = q
	}
	// Outputs are built fresh per execution, but a strategy replaying a
	// cached plan names its output after the query the plan was built from;
	// normalize to this request's query so cached and uncached runs agree
	// on every observable field, presentation included.
	if rep.Output != nil && rep.Query != nil && rep.Query.Name != "" {
		rep.Output.Name = rep.Query.Name
	}
	return rep, nil
}

// epochAdvancer is what the in-process fault wrapper offers in place of
// the session's full rewind protocol: replays just advance the attempt
// epoch (so epoch-0 scheduled faults don't re-fire).
type epochAdvancer interface{ AdvanceEpoch() }

// runSupervised is the recovery supervisor around runOnce: it replays a
// run whose attempt died with ErrPeerUnavailable, up to cfg.recovery
// times. Determinism does the heavy lifting — a replay from round 0 is
// bit-identical to an undisturbed run — so the supervisor's job is purely
// to make every rank abandon the failed attempt *coherently*:
//
//  1. Mark the session before the attempt.
//  2. Run the attempt.
//  3. Exchange outcomes with every rank (a barrier): only a unanimous
//     success is final — a rank that succeeded while a peer failed must
//     discard its answer and replay along with it.
//  4. On failure: health-probe the peers (a refusing peer is dead, not
//     transient — give up), rewind the session (receive state reset,
//     abandoned accounting moved to WireStats.AbandonedBytes), wait for
//     every rank's ready announcement, back off with seeded jitter, and
//     replay.
//
// Every rank runs this same loop in lockstep (SPMD), so the barriers pair
// up generation for generation.
func runSupervised(q *Query, db *Database, strategy Strategy, cfg *runConfig) (*Report, error) {
	sess, _ := cfg.net.(*transport.Session)
	adv, _ := cfg.net.(epochAdvancer)
	rank := 0
	if sess != nil {
		rank = sess.Rank()
	}
	// Seeded, per-rank jitter: deterministic for reproducibility, skewed
	// across ranks so a thundering-herd redial doesn't synchronize.
	jitter := rand.New(rand.NewSource(cfg.seed*31 + int64(rank)))
	var lastErr error
	for attempt := 0; attempt <= cfg.recovery; attempt++ {
		if attempt > 0 {
			base := 25 * time.Millisecond << uint(min(attempt-1, 5))
			delay := base + time.Duration(jitter.Int63n(int64(base)))
			cfg.trace.Instant("replay",
				obs.KV{Key: "attempt", Value: fmt.Sprintf("%d", attempt)},
				obs.KV{Key: "backoff", Value: delay.String()})
			time.Sleep(delay)
		}
		var mark transport.RunMark
		if sess != nil {
			mark = sess.Mark()
		}
		rep, err := runOnce(q, db, strategy, cfg)
		if sess == nil {
			// In-process (or wrapped local) transport: no peers to agree
			// with — retry on the injected-crash shape only.
			if err == nil {
				rep.Recovered = attempt
				if attempt > 0 {
					obsRunsRecovered.Inc()
				}
				return rep, nil
			}
			lastErr = err
			if !errors.Is(err, transport.ErrPeerUnavailable) {
				return nil, err
			}
			if adv != nil {
				adv.AdvanceEpoch()
			}
			continue
		}
		ok := err == nil
		allOK, bErr := sess.ExchangeOutcome(ok)
		if bErr != nil {
			// The barrier itself failed: a peer is unreachable even for a
			// 12-byte control frame. Nothing to recover with.
			if err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("mpcquery: recovery outcome barrier failed: %w", bErr)
		}
		if allOK {
			rep.Recovered = attempt
			if attempt > 0 {
				obsRunsRecovered.Inc()
			}
			return rep, nil
		}
		if err != nil {
			lastErr = err
		} else {
			lastErr = fmt.Errorf("mpcquery: %w: a peer announced a failed attempt %d", transport.ErrPeerUnavailable, attempt)
		}
		if err != nil && !errors.Is(err, transport.ErrPeerUnavailable) {
			// Deterministic local failure (strategy bug, bad input): a
			// replay would fail identically. Every rank hits the same
			// error, so giving up is symmetric too.
			return nil, err
		}
		// Classify before spending a replay: transient failures leave every
		// peer still accepting connections; a dead peer does not.
		if pErr := sess.ProbePeers(); pErr != nil {
			return nil, fmt.Errorf("mpcquery: not recovering (peer dead): %w", pErr)
		}
		if rErr := sess.Rewind(mark); rErr != nil {
			return nil, fmt.Errorf("mpcquery: recovery rewind failed: %w", rErr)
		}
		if bErr := sess.ReadyBarrier(); bErr != nil {
			return nil, fmt.Errorf("mpcquery: recovery ready barrier failed: %w", bErr)
		}
	}
	return nil, lastErr
}
