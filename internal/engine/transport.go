package engine

import (
	"context"
	"fmt"
	"time"

	"mpcquery/internal/obs"
)

// This file is the engine's delivery seam: everything a transport needs to
// move one round of emissions into the next round's inboxes, without seeing
// any other engine internals. The engine stays the authority on *charging*
// (RoundStats, loads, TotalBits are computed from what lands in the
// inboxes); a Transport is the authority on *moving* (and may additionally
// meter real wire bytes, as internal/transport's TCP session does).
//
// The default path — no transport attached — is DeliverLocal, today's
// sharded zero-copy in-memory delivery, unchanged.

// Transport provisions per-cluster delivery links. Implementations live in
// internal/transport; the engine only defines the seam. Attach is called
// once per NewClusterNet, in cluster-creation order — a distributed
// transport uses that order to agree on cluster identities across
// processes, so strategies must create clusters deterministically (they do:
// all control flow is seeded).
type Transport interface {
	// Attach creates the delivery link for a new cluster of p servers
	// exchanging bitsPerValue-bit values. The returned Link is used by
	// exactly one cluster, from one goroutine at a time.
	Attach(p, bitsPerValue int) (Link, error)
}

// Link delivers the rounds of one cluster.
type Link interface {
	// Deliver moves one round of emissions into io.Inboxes and fills the
	// per-destination receive accounting. The engine has already reset the
	// inboxes; Deliver must produce exactly the delivery order documented
	// on Cluster.Round (per destination: senders ascending, each sender's
	// broadcasts after its unicasts), or fingerprints diverge between
	// transports. A non-nil error aborts the run (the engine panics with
	// it; the public API maps it to a typed error).
	Deliver(io *DeliveryRound) error
	// Close releases the link. Called once, by Cluster.Release.
	Close() error
}

// DeliveryRound is one round's worth of pending communication: every
// server's emitter on the sending side, every server's (already reset)
// inbox on the receiving side, and the accounting slots the delivery must
// fill. RecvBits is charged at BitsPerValue per value landed, the model's
// cost; a transport's wire bytes are its own, separate, measurement.
type DeliveryRound struct {
	Round        int // 0-based index of this round within the cluster
	P            int
	BitsPerValue int
	Senders      []*Emitter
	Inboxes      []*Inbox
	RecvBits     []float64
	RecvTuples   []int

	// PerDestSeconds, when non-nil (a traced round), asks the delivery to
	// record each destination's assembly wall time. DeliverLocal fills it;
	// a network link may leave it zeroed (its delivery time is dominated by
	// the wire, which the transport meters separately).
	PerDestSeconds []float64

	// Ctx, when non-nil, bounds the delivery: a network transport must
	// honor its cancellation/deadline while waiting on remote frames, so a
	// wedged round cannot outlive its request. DeliverLocal ignores it
	// (local delivery never blocks on a peer).
	Ctx context.Context

	// Trace, when non-nil, receives the transport's instant events
	// (injected faults, replays). Telemetry only — never fingerprinted.
	Trace *obs.Trace
}

// DeliverLocal is the in-process delivery kernel: sharded by destination,
// each destination collects its batches from every sender in sender order
// into a recycled arena and accounts its own received bits — no
// cross-goroutine writes, no copies beyond the arena append. This is both
// the default (nil-transport) path and the reference semantics every other
// Transport must reproduce.
func DeliverLocal(io *DeliveryRound) {
	ParallelFor(io.P, func(d int) {
		var t0 time.Time
		if io.PerDestSeconds != nil {
			//lint:allow nondeterminism per-destination delivery spans are trace telemetry, excluded from Report.Fingerprint
			t0 = time.Now()
		}
		ib := io.Inboxes[d]
		bits, tuples := 0.0, 0
		for s := 0; s < io.P; s++ {
			em := io.Senders[s]
			if d < len(em.perDest) { // shorter when the sender never emitted unicast
				for _, b := range em.perDest[d].batches {
					ib.appendBlock(b.kind, b.arity, b.vals)
					tuples += len(b.vals) / b.arity
					bits += float64(len(b.vals) * io.BitsPerValue)
				}
			}
			for _, b := range em.bcast.batches {
				ib.appendBlock(b.kind, b.arity, b.vals)
				tuples += len(b.vals) / b.arity
				bits += float64(len(b.vals) * io.BitsPerValue)
			}
		}
		io.RecvBits[d] = bits
		io.RecvTuples[d] = tuples
		if io.PerDestSeconds != nil {
			//lint:allow nondeterminism per-destination delivery spans are trace telemetry, excluded from Report.Fingerprint
			io.PerDestSeconds[d] = time.Since(t0).Seconds()
		}
	})
}

// EachPending visits the emitter's pending batches in emission order:
// unicast destinations in first-touch order (each destination's batches in
// emission order), then broadcasts (dest == Broadcast). A transport
// serializes exactly this sequence; combined with sender-ascending
// iteration it reproduces DeliverLocal's delivery order.
func (e *Emitter) EachPending(f func(dest, kind, arity int, vals []int64)) {
	for _, d := range e.touched {
		for _, b := range e.perDest[d].batches {
			f(d, b.kind, b.arity, b.vals)
		}
	}
	for _, b := range e.bcast.batches {
		f(Broadcast, b.kind, b.arity, b.vals)
	}
}

// Append appends one columnar block of len(vals)/arity tuples to the inbox
// — the transport-facing twin of local delivery's arena append, with the
// same consecutive same-kind span coalescing. vals is copied.
func (ib *Inbox) Append(kind, arity int, vals []int64) {
	if arity < 1 {
		panic("engine: inbox append arity must be positive")
	}
	if len(vals)%arity != 0 {
		panic(fmt.Sprintf("engine: inbox append of %d values is not a multiple of arity %d", len(vals), arity))
	}
	if len(vals) == 0 {
		return
	}
	ib.appendBlock(kind, arity, vals)
}

// NewClusterNet creates a cluster whose round delivery goes through the
// given transport. A nil transport yields a plain in-process cluster —
// every call site can thread its transport unconditionally. Attach errors
// panic (cluster construction sits deep inside strategies, which already
// use panics for internal errors; the public API's recover boundary maps
// them to typed errors).
func NewClusterNet(t Transport, p, bitsPerValue int) *Cluster {
	c := NewCluster(p, bitsPerValue)
	if t != nil {
		link, err := t.Attach(p, bitsPerValue)
		if err != nil {
			c.Release()
			panic(fmt.Errorf("engine: transport attach failed: %w", err))
		}
		c.link = link
	}
	return c
}
