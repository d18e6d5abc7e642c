package engine

import (
	"context"
	"fmt"
	"slices"

	"mpcquery/internal/data"
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
	// Deliver moves one round of emissions into the owned inboxes
	// io.Inboxes[io.Lo:io.Hi] and fills the receive accounting of all p
	// destinations. The engine has already reset the inboxes; Deliver must
	// produce exactly the delivery order documented on Cluster.Round, or
	// fingerprints diverge between transports. A network link gets it by
	// moving the staging other processes need as WalkStaged yields it,
	// restaging what it receives on receive-side emitters (StageBatch,
	// StageGroup, StageMore), and landing those next to its own senders'
	// emitters with DeliverLocal; it leaves io.Senders naming the staging
	// it landed from. A non-nil error aborts the run (the engine panics
	// with it; the public API maps it to a typed error).
	Deliver(io *DeliveryRound) error
	// Close releases the link. Called once, by Cluster.Release.
	Close() error
}

// A PartialLink is the Link of a process that owns only some of a
// cluster's servers, the other processes of its group owning the rest. A
// Link that is not one owns every server.
type PartialLink interface {
	Link
	// Owned returns the servers [lo, hi) of a p-server cluster this
	// process owns: it seeds, evaluates and lands those alone.
	Owned(p int) (lo, hi int)
	// Gather all-gathers one computation phase's output: g.Parts holds the
	// owned servers' parts, and Gather returns the values of all p parts,
	// in server order — the same values at every process of the group. It
	// is not a round of the model and charges nothing. An error aborts the
	// run as Deliver's does.
	Gather(g *GatherRound) ([]int64, error)
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

	// Lo, Hi bound the owned destinations, the only inboxes the delivery
	// lands: [0, P) in process.
	Lo, Hi int

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

	// tr is the delivering cluster's trace, the stopwatch PerDestSeconds
	// is timed with; nil when the round is untraced.
	tr *obs.ClusterTrace
}

// DeliverLocal is the in-process delivery kernel: sharded by destination,
// each owned destination collects its batches from every sender in sender
// order into a recycled arena and accounts its own received bits — no
// cross-goroutine writes, one copy per batch. This is both the default
// (nil-transport) path and the reference semantics every other Transport
// must reproduce.
//
// A batch addressed to a subcube is copied once, into the arena of the
// group's first owned member — the first member, in process — where the
// batches of one group and kind from all senders lie side by side (senders
// ascending) — so that every member can read the kind in place
// (Inbox.KindViews) — and is listed, and charged, under every owned member.
// Listing a span into another destination's arena needs that arena to have
// landed, so the destinations that take part in a group land first and list
// in a second pass; a destination no sender multicast to lands and lists in
// one pass.
func DeliverLocal(io *DeliveryRound) {
	multicast := false
	for _, em := range io.Senders {
		for i := range em.groups {
			g := &em.groups[i]
			g.home = io.home(g)
			multicast = true
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

// eachDest runs one delivery pass, f(d) for every owned destination in
// parallel, adding each destination's wall time to PerDestSeconds in a
// traced round.
func (io *DeliveryRound) eachDest(f func(d int)) {
	ParallelFor(io.Hi-io.Lo, func(i int) {
		d := io.Lo + i
		t0 := io.tr.Start()
		f(d)
		if io.PerDestSeconds != nil {
			io.PerDestSeconds[d] += io.tr.Seconds(t0)
		}
	})
}

// home returns the member of a group whose arena its batch lands in: the
// first owned member, -1 when the group has none.
func (io *DeliveryRound) home(g *groupBatch) int {
	if io.Lo == 0 && io.Hi == io.P {
		return g.first()
	}
	for _, off := range g.offsets {
		if d := g.base + off; d >= io.Lo && d < io.Hi {
			return d
		}
	}
	return -1
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
// batches, in delivery order, then one region per (group, kind) for the
// groups d is the home of. Every batch landed in a region records where, for
// its members to list.
func (io *DeliveryRound) land(d int, ib *Inbox) {
	regions, total := ib.regions[:0], 0
	for _, em := range io.Senders {
		own, refs := em.pending(d)
		for _, b := range own {
			total += len(b.vals)
		}
		for _, ref := range refs {
			g := &em.groups[ref.idx]
			if g.home != d {
				continue
			}
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
			if g := &em.groups[ref.idx]; g.home == d {
				g.landed = regions[g.region].next
				regions[g.region].next += copy(ib.arena[g.landed:], g.vals)
			}
		}
	}
}

// list writes destination d's span list once every arena has landed, in
// delivery order: per sender, its own batches to d and its group batches d is
// a member of, merged in the order the sender opened them. Own batches sit in
// d's arena in exactly this order; a group batch sits where its home landed
// it.
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
			owner := io.Inboxes[g.home]
			if owner == ib {
				owner = nil
			}
			ib.addSpan(g.kind, g.arity, owner, g.landed, g.landed+len(g.vals))
			values += len(g.vals)
		}
		for ; listed < len(own); listed++ {
			landed(&own[listed])
		}
	}
	io.charge(d, values+next, ib.tuples)
}

// Staged is one batch of a sender's staging as a transport moves it: a batch
// to the server Dest, or — when Offsets is non-nil — a batch to the subcube
// Base+Offsets[·], staged once for the whole group. Vals holds its tuples,
// row-major, Arity values each, and aliases the staging.
type Staged struct {
	Dest        int
	Base        int
	Offsets     []int
	Kind, Arity int
	Vals        []int64
}

// WalkStaged visits the emitter's staged batches in replay order: the group
// batches in the order they were opened, each preceded, for every member, by
// the batches to that member opened before it; then every destination's
// remaining batches. Staging the visited batches afresh, in this order, on
// an empty emitter (StageBatch, StageGroup) rebuilds a staging that
// DeliverLocal delivers exactly as this one — which is how a transport moves
// a sender's round, each multicast batch once.
// WalkStaged walks a staged round (barrier, or streamed over a link) and
// allocates nothing once warm.
func (e *Emitter) WalkStaged(f func(Staged)) {
	if n := len(e.refs); len(e.walked) < n {
		e.walked = append(e.walked, make([]int32, n-len(e.walked))...)
	}
	for _, d := range e.touched {
		e.walked[d] = 0
	}
	for i := range e.groups {
		g := &e.groups[i]
		for _, off := range g.offsets {
			d := g.base + off
			e.walkOwn(d, int(e.refs[d][e.walked[d]].ownBefore), f)
			e.walked[d]++
		}
		f(Staged{Base: g.base, Offsets: g.offsets, Kind: g.kind, Arity: g.arity, Vals: g.vals})
	}
	for _, d := range e.touched {
		e.walkOwn(d, len(e.perDest[d].batches), f)
	}
}

// walkOwn visits the batches to d that WalkStaged has not visited yet, up to
// but excluding batch upto.
func (e *Emitter) walkOwn(d, upto int, f func(Staged)) {
	from := 0
	if n := e.walked[d]; n > 0 {
		from = int(e.refs[d][n-1].ownBefore)
	}
	batches := e.perDest[d].batches
	for i := from; i < upto; i++ {
		f(Staged{Dest: d, Kind: batches[i].kind, Arity: batches[i].arity, Vals: batches[i].vals})
	}
}

// Restage empties the emitter for staging a round of p servers, keeping
// every buffer's capacity. Every Round restages a cluster's emitters; a
// transport restages the receive-side emitter it rebuilds a sender's round
// on — one no cluster owns, the zero Emitter included — with StageBatch,
// StageGroup and StageMore, for DeliverLocal to land.
func (e *Emitter) Restage(p int) {
	for _, d := range e.touched {
		e.perDest[d].reset()
		e.refs[d] = e.refs[d][:0]
	}
	e.touched = e.touched[:0]
	for i := range e.groups {
		e.groups[i].offsets = nil
	}
	e.groups = e.groups[:0]
	e.p = p
	e.last = nil
	e.runs, e.seq, e.flushes, e.stagedHW = 0, 0, 0, 0
}

// StageBatch opens a fresh batch of n values of one kind to dest on a
// receive-side emitter, and returns the values for the caller to fill.
func (e *Emitter) StageBatch(dest, kind, arity, n int) []int64 {
	e.checkDest(dest)
	b := e.dest(dest).openNew()
	e.label(b, kind, arity)
	return e.stage(&b.vals, n)
}

// StageGroup opens a fresh batch of n values of one kind to the subcube
// base+offsets[·] on a receive-side emitter and returns the values for the
// caller to fill. offsets is retained until the round has been delivered.
func (e *Emitter) StageGroup(base int, offsets []int, kind, arity, n int) []int64 {
	return e.stage(&e.groups[e.openGroup(base, offsets, kind, arity)].vals, n)
}

// StageMore extends the batch the last StageBatch or StageGroup opened by n
// values, and returns them for the caller to fill: the rest of a batch a
// transport cut into pieces.
func (e *Emitter) StageMore(n int) []int64 {
	if e.last == nil {
		panic("engine: StageMore before any staged batch")
	}
	return e.stage(e.last, n)
}

// stage grows *vals by n values, returns them, and remembers the batch for
// StageMore.
func (e *Emitter) stage(vals *[]int64, n int) []int64 {
	e.last = vals
	k := len(*vals)
	*vals = slices.Grow(*vals, n)[:k+n]
	return (*vals)[k:]
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
		if pl, ok := link.(PartialLink); ok {
			c.lo, c.hi = pl.Owned(p)
		}
	}
	return c
}

// GatherRound is one output gather of a cluster: the per-server parts of a
// computation phase's output, rows of Arity values each, of which this
// process holds those of the servers it owns (PartialLink.Owned).
type GatherRound struct {
	Seq          int // the cluster's gathers before this one
	P            int
	Arity        int
	BitsPerValue int
	Parts        [][]int64

	// Ctx and Trace are the run's, as on DeliveryRound.
	Ctx   context.Context
	Trace *obs.Trace
}

// Gather returns one relation holding every server's part of a computation
// phase's output, in server order — Concat's result. When another process
// owns some of the servers, the owned parts are exchanged with it over the
// link first, once, after the phase: every process then holds the same
// relation. The exchange is not a round of the model: it charges nothing
// and appears in no RoundStats. A nil part is empty; parts of servers this
// process does not own are ignored.
func (c *Cluster) Gather(name string, arity int, parts []*data.Relation) *data.Relation {
	if c.lo == 0 && c.hi == c.p {
		return Concat(name, arity, parts)
	}
	g := &GatherRound{
		Seq: c.gathers, P: c.p, Arity: arity, BitsPerValue: c.bitsPerValue,
		Parts: make([][]int64, c.p), Ctx: c.runCtx, Trace: c.runTrace,
	}
	c.gathers++
	for s := c.lo; s < c.hi; s++ {
		if parts[s] != nil {
			g.Parts[s] = parts[s].Vals()
		}
	}
	vals, err := c.link.(PartialLink).Gather(g)
	if err != nil {
		panic(fmt.Errorf("engine: output gather %d failed: %w", g.Seq, err))
	}
	return data.FromVals(name, arity, vals)
}
