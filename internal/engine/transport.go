package engine

import (
	"context"
	"fmt"
	"slices"
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
// The default path — no transport attached — is DeliverLocal, the sharded
// in-memory delivery.

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
	// batches in the order it opened them, then its broadcasts), or
	// fingerprints diverge between transports: visiting senders ascending
	// and appending what each one's EachPending yields, in order, does. A
	// non-nil error aborts the run (the engine panics with it; the public
	// API maps it to a typed error).
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
// cross-goroutine writes, one copy per batch. This is both the default
// (nil-transport) path and the reference semantics every other Transport
// must reproduce.
//
// A batch addressed to a subcube is copied once, into the arena of the
// group's first member, where the batches of one group and kind from all
// senders lie side by side (senders ascending) — so that every member can
// read the kind in place (Inbox.KindViews) — and is listed, and charged,
// under every member. Listing a span into another destination's arena needs
// that arena to have landed, so the destinations that take part in a group
// land first and list in a second pass; a destination no sender multicast
// to lands and lists in one pass.
func DeliverLocal(io *DeliveryRound) {
	multicast := false
	for _, em := range io.Senders {
		if len(em.groups) > 0 {
			multicast = true
			break
		}
	}
	io.eachDest(func(d int) {
		if ib := io.Inboxes[d]; multicast && io.inGroup(d) {
			io.land(d, ib)
			ib.unlisted = true
		} else {
			io.landAndList(d, ib)
		}
	})
	if !multicast {
		return
	}
	io.eachDest(func(d int) {
		if ib := io.Inboxes[d]; ib.unlisted {
			io.list(d, ib)
			ib.unlisted = false
		}
	})
}

// eachDest runs one delivery pass, f(d) for every destination in parallel,
// adding each destination's wall time to PerDestSeconds in a traced round.
func (io *DeliveryRound) eachDest(f func(d int)) {
	if io.PerDestSeconds == nil {
		ParallelFor(io.P, f)
		return
	}
	ParallelFor(io.P, func(d int) {
		//lint:allow nondeterminism per-destination delivery spans are trace telemetry, excluded from Report.Fingerprint
		t0 := time.Now()
		f(d)
		//lint:allow nondeterminism per-destination delivery spans are trace telemetry, excluded from Report.Fingerprint
		io.PerDestSeconds[d] += time.Since(t0).Seconds()
	})
}

// pending returns what sender em holds for destination d: its own batches,
// and the references to its group batches d is a member of — nothing when it
// never staged anything that far.
func (em *Emitter) pending(d int) (own []outBatch, refs []groupRef) {
	if d < len(em.perDest) {
		return em.perDest[d].batches, em.refs[d]
	}
	return nil, nil
}

// inGroup reports whether some sender addressed a subcube d is a member of.
func (io *DeliveryRound) inGroup(d int) bool {
	for _, em := range io.Senders {
		if d < len(em.refs) && len(em.refs[d]) > 0 {
			return true
		}
	}
	return false
}

// charge fills destination d's receive accounting.
func (io *DeliveryRound) charge(d, values, tuples int) {
	io.RecvBits[d] = float64(values * io.BitsPerValue)
	io.RecvTuples[d] = tuples
}

// landAndList delivers to a destination that is in no group: every batch is
// appended to the arena and listed as it lands.
func (io *DeliveryRound) landAndList(d int, ib *Inbox) {
	for _, em := range io.Senders {
		if d < len(em.perDest) {
			for _, b := range em.perDest[d].batches {
				ib.appendBlock(b.kind, b.arity, b.vals)
			}
		}
		for _, b := range em.bcast.batches {
			ib.appendBlock(b.kind, b.arity, b.vals)
		}
	}
	io.charge(d, len(ib.arena), ib.tuples)
}

// region is the part of a first member's arena that holds the batches of one
// group and kind, from all senders.
type region struct {
	base        int
	offsets     []int
	kind, arity int
	size        int // values in the region
	next        int // arena offset the next batch of the region lands at
}

// land fills destination d's arena without listing anything: first its own
// batches and the broadcasts, in delivery order, then one region per (group,
// kind) for the groups d is the first member of. Every batch landed in a
// region records where, for its members to list.
func (io *DeliveryRound) land(d int, ib *Inbox) {
	regions, total := ib.regions[:0], 0
	for _, em := range io.Senders {
		own, refs := em.pending(d)
		for _, b := range own {
			total += len(b.vals)
		}
		for _, b := range em.bcast.batches {
			total += len(b.vals)
		}
		for _, ref := range refs {
			if !ref.first {
				continue
			}
			g := &em.groups[ref.idx]
			g.region = -1
			for i := range regions {
				if r := &regions[i]; r.kind == g.kind && r.arity == g.arity && g.targets(r.base, r.offsets) {
					g.region = i
					break
				}
			}
			if g.region < 0 {
				g.region = len(regions)
				regions = append(regions, region{base: g.base, offsets: g.offsets, kind: g.kind, arity: g.arity})
			}
			regions[g.region].size += len(g.vals)
		}
	}
	for i := range regions {
		regions[i].next = total
		total += regions[i].size
	}
	ib.regions = regions
	ib.arena = slices.Grow(ib.arena, total)[:total]

	next := 0
	for _, em := range io.Senders {
		own, refs := em.pending(d)
		for _, b := range own {
			next += copy(ib.arena[next:], b.vals)
		}
		for _, ref := range refs {
			if ref.first {
				g := &em.groups[ref.idx]
				g.landed = regions[g.region].next
				regions[g.region].next += copy(ib.arena[g.landed:], g.vals)
			}
		}
		for _, b := range em.bcast.batches {
			next += copy(ib.arena[next:], b.vals)
		}
	}
}

// list writes destination d's span list once every arena has landed, in
// delivery order: per sender, its own batches to d and its group batches d is
// a member of, merged in the order the sender opened them, then its
// broadcasts. Own batches and broadcasts sit in d's arena in exactly this
// order; a group batch sits where its first member landed it.
func (io *DeliveryRound) list(d int, ib *Inbox) {
	next, values := 0, 0
	landed := func(b *outBatch) {
		ib.addSpan(b.kind, b.arity, nil, next, next+len(b.vals))
		next += len(b.vals)
	}
	for _, em := range io.Senders {
		own, refs := em.pending(d)
		listed := 0
		for _, ref := range refs {
			for ; listed < int(ref.ownBefore); listed++ {
				landed(&own[listed])
			}
			g := &em.groups[ref.idx]
			owner := io.Inboxes[g.first()]
			if owner == ib {
				owner = nil
			}
			ib.addSpan(g.kind, g.arity, owner, g.landed, g.landed+len(g.vals))
			values += len(g.vals)
		}
		for ; listed < len(own); listed++ {
			landed(&own[listed])
		}
		for i := range em.bcast.batches {
			landed(&em.bcast.batches[i])
		}
	}
	io.charge(d, values+next, ib.tuples)
}

// EachPending visits the emitter's pending batches for a transport to
// serialize: destinations in first-touch order, each destination's batches —
// its own and the multicast batches it is a member of, which are yielded once
// per member — in the order the sender opened them, then the broadcasts
// (dest == Broadcast). In a chunked round every batch is cut into frames of
// at most the chunk size. Visiting senders ascending and appending every
// yielded block to its destination reproduces DeliverLocal's delivery order.
// EachPending allocates nothing.
func (e *Emitter) EachPending(f func(dest, kind, arity int, vals []int64)) {
	frames := func(dest int, b *outBatch) {
		vals := b.vals
		if limit := e.chunkTuples * b.arity; limit > 0 {
			for ; len(vals) > limit; vals = vals[limit:] {
				f(dest, b.kind, b.arity, vals[:limit])
			}
		}
		f(dest, b.kind, b.arity, vals)
	}
	for _, d := range e.touched {
		own, sent := e.perDest[d].batches, 0
		for _, ref := range e.refs[d] {
			for ; sent < int(ref.ownBefore); sent++ {
				frames(d, &own[sent])
			}
			frames(d, &e.groups[ref.idx].outBatch)
		}
		for ; sent < len(own); sent++ {
			frames(d, &own[sent])
		}
	}
	for i := range e.bcast.batches {
		frames(Broadcast, &e.bcast.batches[i])
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
