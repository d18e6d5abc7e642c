package mpcquery

import (
	"time"

	"mpcquery/internal/transport"
	"mpcquery/internal/transport/fault"
)

// Sentinel errors of the distributed runtime; test with errors.Is.
var (
	// ErrPeerUnavailable: a peer rank could not be dialed or written within
	// the runtime's retry budget, or a round's frames did not arrive within
	// the round timeout. Run and Service.Run surface it (wrapped) instead of
	// a StrategyError — a distributed delivery failure is an operational
	// condition, not a strategy bug.
	ErrPeerUnavailable = transport.ErrPeerUnavailable
	// ErrRuntimeClosed: the DistributedRuntime was closed.
	ErrRuntimeClosed = transport.ErrSessionClosed
)

// FaultPlan is a deterministic fault schedule for WithFaultInjection:
// seeded frame drops, delays, duplicate deliveries, connection resets, a
// scheduled rank crash, and slow-peer straggling. Every decision is a pure
// function of (seed, fault site), so a chaos run is exactly reproducible.
// Construct with NewFaultPlan and set the rate/site fields directly.
type FaultPlan = fault.Plan

// NewFaultPlan returns an empty schedule (no faults) keyed by seed.
func NewFaultPlan(seed int64) *FaultPlan { return fault.NewPlan(seed) }

// TransportWireStats is a snapshot of one rank's wire-level accounting:
// bytes on sockets, framing overhead, and the model bits charged for this
// rank's owned senders. See the field docs for the accounting identities
// the test suite asserts (Σ ranks ChargedBits == Report.TotalBits;
// ChargedBits ≤ BilledPayloadBytes×8).
type TransportWireStats = transport.WireStats

// DistributedRuntime connects this process to a fixed group of worker
// processes ("ranks") over TCP and makes every Run that carries it execute
// across the group.
//
// The execution model is SPMD and owner-computes: every rank must execute
// the same sequence of runs with the same queries, databases, and options,
// and every rank plans the whole run, but of every cluster of p model
// servers, rank r of n owns the block [r·p/n, (r+1)·p/n) and computes only
// those: it seeds their input, runs their round functions and local
// joins, and lands their inboxes. Each round, a rank ships a peer only the
// tuples addressed to servers that peer owns, and declares what it sent
// every server, so each rank meters the whole round. After the final
// computation phase the ranks exchange their servers' outputs once. The
// wire is therefore load-bearing (drop it and results change),
// byte-metered, and the resulting Reports — loads, total bits, outputs,
// Fingerprint() — are identical at every rank and identical to a plain
// in-process Run. Only Report.PeakBufferedBytes, and the timings, are the
// rank's own: a rank buffers only what its servers stage and receive.
type DistributedRuntime struct {
	s *transport.Session
}

// RuntimeOption tunes DialRuntime's failure handling.
type RuntimeOption func(*transport.Options)

// WithDialBudget bounds connection attempts per peer (default 40) and the
// base backoff between attempts (default 50ms, doubling up to 1s). The
// budget absorbs the startup race where ranks come up in arbitrary order.
func WithDialBudget(attempts int, backoff time.Duration) RuntimeOption {
	return func(o *transport.Options) { o.DialAttempts, o.DialBackoff = attempts, backoff }
}

// WithWriteRetries bounds how many times a failed round write to one peer
// is retried with a fresh connection (default 2). Retries are safe:
// receivers deduplicate resent frames by sequence number.
func WithWriteRetries(n int) RuntimeOption {
	return func(o *transport.Options) { o.WriteRetries = n }
}

// WithRoundTimeout bounds how long one communication round waits for the
// other ranks' frames (default 60s) before failing with
// ErrPeerUnavailable.
func WithRoundTimeout(d time.Duration) RuntimeOption {
	return func(o *transport.Options) { o.RoundTimeout = d }
}

// DialRuntime joins the worker group as addrs[rank]: it listens on that
// address and connects to every other rank, retrying under the dial budget
// while the group comes up, and returns only once every peer is connected
// — or fails with ErrPeerUnavailable when a peer never appears. A peer
// lost after that fails the Run that next needs it, with the same
// sentinel.
//
// All ranks must be given the same addrs slice in the same order — the
// rank index is the worker's identity.
func DialRuntime(rank int, addrs []string, opts ...RuntimeOption) (*DistributedRuntime, error) {
	var o transport.Options
	for _, opt := range opts {
		if opt != nil {
			opt(&o)
		}
	}
	s, err := transport.Dial(rank, addrs, &o)
	if err != nil {
		return nil, err
	}
	return &DistributedRuntime{s: s}, nil
}

// Rank returns this process's index in the worker group.
func (rt *DistributedRuntime) Rank() int { return rt.s.Rank() }

// Ranks returns the worker group's size.
func (rt *DistributedRuntime) Ranks() int { return rt.s.Ranks() }

// Addr returns the local listener's address.
func (rt *DistributedRuntime) Addr() string { return rt.s.Addr() }

// WireStats snapshots this rank's cumulative wire accounting.
func (rt *DistributedRuntime) WireStats() TransportWireStats { return rt.s.Stats() }

// Close tears down the listener and every peer connection. In-flight
// rounds fail with ErrRuntimeClosed. Close is idempotent.
func (rt *DistributedRuntime) Close() error { return rt.s.Close() }

// WithRuntime runs the run across rt's worker group instead of in
// process: each rank computes the servers it owns and every communication
// round crosses the group (see DistributedRuntime). All ranks must issue the
// same Run (SPMD); each obtains the full Report. With WithOutputSink, each
// rank's sink receives the output of the servers that rank owns, and no
// output is exchanged: the ranks' sinks together see the whole output. A
// nil rt means in-process delivery, so the same code path can serve both
// modes.
func WithRuntime(rt *DistributedRuntime) RunOption {
	return func(c *runConfig) {
		if rt == nil {
			c.net = nil
			return
		}
		c.net = rt.s
	}
}
