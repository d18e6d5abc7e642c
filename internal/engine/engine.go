// Package engine implements the Massively Parallel Communication (MPC)
// substrate of Section 2.1: p servers connected by a complete network of
// private channels, computing in synchronized rounds that alternate a
// communication phase (all-to-all tuple exchange) and a computation phase
// (arbitrary local work).
//
// The engine meters exactly the quantities the model is parameterized by:
// the number of rounds r, and the maximum load L — the number of bits any
// server *receives* in a round. The initial partitioned input (each server
// holds M/p bits) is free, as in the paper; every subsequent delivery is
// charged at Arity·⌈log₂ n⌉ bits per tuple, and a broadcast is charged to
// every one of its p receivers.
//
// Communication is batched and columnar: a server's emissions are grouped
// into flat []int64 buffers per (sender → target) and message kind, where a
// target is one destination server or one destination subcube. A tuple
// replicated to a subcube is staged once by its sender and landed once, in
// the arena of the subcube's first server; every member's inbox lists it,
// every member is charged for it, and the computation phase reads it in
// place (Inbox.KindViews). Delivery is sharded by destination across
// GOMAXPROCS goroutines, and each server's inbox arena is reused across
// rounds — no per-tuple allocation happens on the steady-state path. Delivery
// order is deterministic given the algorithm's emissions, so seeded runs are
// reproducible; Cluster.Round states the order.
package engine

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"mpcquery/internal/data"
	"mpcquery/internal/hashing"
	"mpcquery/internal/obs"
	"mpcquery/internal/query"
)

// Broadcast is the destination pseudo-id that delivers a batch to every
// server. Each of the p copies is charged to its receiver, as the model
// requires.
const Broadcast = -1

// Batch is a read-only view of one columnar group of same-kind tuples: the
// values of NumTuples() tuples of the given arity, stored row-major in one
// flat slice. The kind is a small integer tag, typically the index of the
// relation or subquery the tuples belong to.
type Batch struct {
	Kind  int
	Arity int
	Vals  []int64
}

// NumTuples returns the number of tuples in the batch.
func (b Batch) NumTuples() int {
	if b.Arity == 0 {
		return 0
	}
	return len(b.Vals) / b.Arity
}

// Tuple returns a view of tuple i. The view aliases the batch's values: it
// is valid only until the owning inbox is recycled (the second next Round).
// The values may be shared with other servers' inboxes: they are read-only.
func (b Batch) Tuple(i int) []int64 {
	return b.Vals[i*b.Arity : (i+1)*b.Arity : (i+1)*b.Arity]
}

// span is one kind-homogeneous run of tuples inside an inbox arena.
type span struct {
	kind  int
	arity int
	start int // arena offset of the first value
	end   int // arena offset past the last value

	// owner is nil for a span of the listing inbox's own arena. A multicast
	// batch is landed once, in the arena of its group's first member; every
	// other member lists it as a span into that inbox's arena.
	owner *Inbox

	// Streaming tags, meaningful only while an inbox is accumulating
	// pipelined chunks (see stream.go): the sending server, the sequence
	// number of the batch the chunk belongs to, the sender's per-round flush
	// sequence number, and the class (0 = unicast and multicast, 1 =
	// broadcast). finalizeStream sorts on (sender, cls, run, seq) to
	// reproduce the barrier delivery order; barrier-path spans leave the
	// tags zero.
	sender int32
	run    int32
	seq    int32
	cls    int8
}

// Inbox holds what one server received in the most recent round (or its
// seeded input before the first round): an ordered sequence of columnar
// batches backed by flat arenas that the engine reuses across rounds — the
// inbox's own, and, for batches replicated to a subcube, the arena of the
// subcube's first server. Tuple views handed out by Each/Batch/
// KindViews alias those arenas, are read-only (other servers may be reading
// the same values), and are invalidated when the arenas are recycled, two
// Rounds later — all inboxes of a round are recycled together, so a view into
// another server's arena lives exactly as long as one into the inbox's own.
// Copy values that must outlive a round.
type Inbox struct {
	arena  []int64
	spans  []span
	tuples int

	// streamed marks an inbox holding unsorted pipelined chunks; cleared
	// when finalizeStream restores the barrier delivery order.
	streamed bool

	// shared marks an inbox that lists spans of other inboxes' arenas.
	shared bool

	// Delivery scratch (see DeliverLocal): the regions of the arena that
	// hold the multicast batches landed here, and whether the span list is
	// still to be written once every arena of the round has landed.
	regions  []region
	unlisted bool
}

// vals returns the values of a span, wherever they were landed.
func (ib *Inbox) vals(sp *span) []int64 {
	arena := ib.arena
	if sp.owner != nil {
		arena = sp.owner.arena
	}
	return arena[sp.start:sp.end:sp.end]
}

// NumTuples returns the total number of tuples in the inbox.
func (ib *Inbox) NumTuples() int { return ib.tuples }

// NumBatches returns the number of columnar batches.
func (ib *Inbox) NumBatches() int { return len(ib.spans) }

// Batch returns a view of batch i, in delivery order.
func (ib *Inbox) Batch(i int) Batch {
	sp := &ib.spans[i]
	return Batch{Kind: sp.kind, Arity: sp.arity, Vals: ib.vals(sp)}
}

// Each calls f for every tuple in delivery order. The tuple slice aliases
// an inbox arena; see Inbox for its lifetime.
func (ib *Inbox) Each(f func(kind int, tuple []int64)) {
	for i := range ib.spans {
		sp := &ib.spans[i]
		kind, arity := sp.kind, sp.arity
		for vals := ib.vals(sp); len(vals) >= arity; vals = vals[arity:] {
			f(kind, vals[:arity:arity])
		}
	}
}

// EachBatch calls f for every batch in delivery order — the bulk
// counterpart of Each for algorithms that can process a whole kind-group at
// once.
func (ib *Inbox) EachBatch(f func(b Batch)) {
	for i := range ib.spans {
		f(ib.Batch(i))
	}
}

// KindView is one message kind's share of an inbox, read in place: when OK,
// Vals holds every tuple of the kind, row-major, in delivery order.
type KindView struct {
	Vals  []int64
	Arity int // 0 when the inbox holds no tuple of the kind
	OK    bool

	// Where the kind's spans lie so far, while KindViews walks the inbox.
	owner      *Inbox
	start, end int
}

// KindViews reports, for every kind k in [0, len(views)), whether the inbox's
// tuples of kind k lie physically consecutive, in delivery order, in one
// arena — and if so hands them out as one read-only slice. That is the case
// for a kind that reached this server through one destination subcube (its
// batches are landed side by side, senders ascending, whatever other kinds
// were delivered in between), for a kind held in a single batch, and for a
// kind the inbox does not hold at all (an empty view) — after in-process
// delivery and over a transport link alike, since a link lands its rounds
// through DeliverLocal. A kind fed tuple by tuple from several senders next
// to other kinds, or through two subcubes, is scattered: its view is not OK
// and the caller concatenates the kind's batches instead. A view has the
// inbox's lifetime.
func (ib *Inbox) KindViews(views []KindView) {
	for k := range views {
		views[k] = KindView{OK: true}
	}
	intact := len(views) // kinds not yet found scattered
	for i := 0; i < len(ib.spans) && intact > 0; i++ {
		sp := &ib.spans[i]
		if sp.kind < 0 || sp.kind >= len(views) {
			continue
		}
		owner := sp.owner
		if owner == nil {
			owner = ib
		}
		switch v := &views[sp.kind]; {
		case !v.OK:
		case v.Arity == 0:
			v.Arity, v.owner, v.start, v.end = sp.arity, owner, sp.start, sp.end
		case v.Arity == sp.arity && v.owner == owner && v.end == sp.start:
			v.end = sp.end
		default:
			v.OK = false
			intact--
		}
	}
	for k := range views {
		if v := &views[k]; v.OK && v.owner != nil {
			v.Vals = v.owner.arena[v.start:v.end:v.end]
		}
		views[k].owner = nil
	}
}

// reset empties the inbox, keeping the arena's capacity for reuse. Spans into
// other inboxes' arenas are dropped, not just truncated: a pooled inbox must
// not pin or alias an arena some other cluster has taken since.
func (ib *Inbox) reset() {
	ib.arena = ib.arena[:0]
	if ib.shared {
		clear(ib.spans)
		ib.shared = false
	}
	ib.spans = ib.spans[:0]
	ib.tuples = 0
	ib.streamed = false
	clear(ib.regions)
	ib.regions = ib.regions[:0]
	ib.unlisted = false
}

// appendBlock appends count tuples of one kind, coalescing with the
// previous span when kinds and arities match.
func (ib *Inbox) appendBlock(kind, arity int, vals []int64) {
	start := len(ib.arena)
	ib.arena = append(ib.arena, vals...)
	ib.addSpan(kind, arity, nil, start, len(ib.arena))
}

// addSpan lists the values [start, end) of owner's arena (nil = the inbox's
// own) as further tuples of one kind, coalescing with the previous span when
// it matches and ends where this one starts.
func (ib *Inbox) addSpan(kind, arity int, owner *Inbox, start, end int) {
	if n := len(ib.spans); n > 0 && ib.spans[n-1].kind == kind && ib.spans[n-1].arity == arity &&
		ib.spans[n-1].owner == owner && ib.spans[n-1].end == start {
		ib.spans[n-1].end = end
	} else {
		ib.spans = append(ib.spans, span{kind: kind, arity: arity, owner: owner, start: start, end: end})
		ib.shared = ib.shared || owner != nil
	}
	ib.tuples += (end - start) / arity
}

// RoundStats records the communication metrics of one round.
type RoundStats struct {
	Name            string
	MaxRecvBits     float64
	TotalRecvBits   float64
	MaxRecvTuples   int
	TotalRecvTuples int
	// Aborted is set when a load cap was configured (SetLoadCap) and some
	// server received more than the cap this round — the paper's abort
	// semantics (Section 2.1): randomized algorithms declare a load L and
	// abort when it is exceeded, which happens with exponentially small
	// probability for the HyperCube analyses.
	Aborted bool
}

// outBatch is one pending same-kind batch from a sender to one target. run
// numbers the batches the sender opened this round, in opening order; limit
// is the number of values at which the batch is flushed, one chunk in a
// pipelined round and never otherwise (see stream.go).
type outBatch struct {
	kind  int
	arity int
	limit int
	vals  []int64
	run   int32
}

// groupBatch is one pending same-kind batch from a sender to one destination
// subcube, the servers base+offsets[·]: its tuples are staged here once,
// whatever the size of the group. offsets is the caller's table, retained
// until the round is delivered.
type groupBatch struct {
	outBatch
	base    int
	offsets []int

	// Barrier delivery: the member whose arena the batch is copied to (its
	// first owned member), the region of that arena, and the arena offset
	// it landed at (see DeliverLocal).
	home, region, landed int
}

// first returns the group's first member, in whose arena the batch lands.
func (g *groupBatch) first() int { return g.base + g.offsets[0] }

// targets reports whether the batch is addressed to the group base+offsets[·].
func (g *groupBatch) targets(base int, offsets []int) bool {
	return g.base == base && len(g.offsets) == len(offsets) &&
		(&g.offsets[0] == &offsets[0] || slices.Equal(g.offsets, offsets))
}

// groupRef records, under one member of a group, that the sender opened a
// batch for the group: batch idx of Emitter.groups, opened when the sender
// had ownBefore batches of its own for this member.
type groupRef struct {
	idx       int32
	ownBefore int32
}

// sendBuf accumulates a sender's pending batches for one destination (or
// its broadcasts). Resetting keeps every vals backing array for reuse.
type sendBuf struct {
	batches []outBatch
	slot    int32 // running EmitRouted's table: 1 + index of the batch to it, or of the group it heads
}

func (sb *sendBuf) reset() {
	sb.batches, sb.slot = sb.batches[:0], 0
}

// openNew starts a fresh (possibly recycled) batch slot, for the caller to
// label.
func (sb *sendBuf) openNew() *outBatch {
	n := len(sb.batches)
	if n < cap(sb.batches) {
		// Recycle the slot (and its vals capacity) from an earlier round.
		sb.batches = sb.batches[:n+1]
		b := &sb.batches[n]
		b.vals = b.vals[:0]
		return b
	}
	sb.batches = append(sb.batches, outBatch{})
	return &sb.batches[n]
}

// Emitter buffers one server's outgoing communication during a round. It is
// handed to the round function and must not be retained or used from other
// goroutines. Emitted values are copied immediately, so callers may reuse
// (or mutate) the tuple slices they pass in.
type Emitter struct {
	c       *Cluster
	self    int       // this emitter's server id (the chunk span's sender tag)
	p       int       // servers of the round being staged
	perDest []sendBuf // lazily allocated, one per destination
	touched []int     // destinations with pending batches or refs, in first-touch order
	slotted []int32   // destinations whose sendBuf.slot the running EmitRouted has set
	bcast   sendBuf

	// Multicast staging: the batches addressed to subcubes, in the order
	// they were opened, and per destination (sized with perDest) the
	// references to those it is a member of, in the same order.
	groups []groupBatch
	refs   [][]groupRef

	// Transport staging (see transport.go): per destination, the group
	// references WalkStaged has passed; and, on a receive-side emitter, the
	// values of the batch StageMore extends.
	walked []int32
	last   *[]int64

	// Streaming state (see stream.go). chunkTuples is the cluster's chunk
	// size for the round (0 = barrier). In a pipelined round every batch is
	// flushed into its destinations' spare inboxes each time it holds
	// chunkTuples tuples, and when the sender switches kind on a target the
	// target's batch is flushed and relabelled, so each target keeps one
	// buffer of unflushed values.
	chunkTuples int
	pipelined   bool
	runs        int32 // batches opened this round
	seq         int32 // pipelined: per-round flush sequence number
	flushes     int   // chunks flushed this round (pipelined only)
	stagedHW    int   // high-water of the values staged and not yet flushed (see noteStaged)
}

// reset prepares the emitter for a round of its cluster: every staging
// buffer touched since the last reset — by this cluster or, for a recycled
// emitter, by a previous one, even one whose round function panicked
// mid-emission — is emptied (capacity kept, group descriptors dropped), and
// the round's streaming mode is set.
func (e *Emitter) reset(pipelined bool) {
	e.Restage(e.c.p)
	e.chunkTuples = e.c.streamChunk
	e.pipelined = pipelined
}

// checkDest panics unless dest names a server of the cluster.
func (e *Emitter) checkDest(dest int) {
	if dest < 0 || dest >= e.p {
		panic(fmt.Sprintf("engine: destination %d out of range [0,%d)", dest, e.p))
	}
}

// dest returns the staging of one (checked) destination, noting its first
// touch of the round.
func (e *Emitter) dest(dest int) *sendBuf {
	if len(e.perDest) < e.p {
		// A recycled emitter may come from a smaller cluster: keep its
		// buffers and extend.
		grow := e.p - len(e.perDest)
		e.perDest = append(e.perDest, make([]sendBuf, grow)...)
		e.refs = append(e.refs, make([][]groupRef, grow)...)
	}
	sb := &e.perDest[dest]
	if len(sb.batches) == 0 && len(e.refs[dest]) == 0 {
		e.touched = append(e.touched, dest)
	}
	return sb
}

func (e *Emitter) buf(dest int) *sendBuf {
	if dest == Broadcast {
		return &e.bcast
	}
	e.checkDest(dest)
	return e.dest(dest)
}

// openGroup starts a batch for the subcube base+offsets[·], every member
// checked once here rather than once per tuple, references it under every
// member, and returns its index in e.groups.
func (e *Emitter) openGroup(base int, offsets []int, kind, arity int) int {
	for _, off := range offsets {
		e.checkDest(base + off)
	}
	n := len(e.groups)
	if n < cap(e.groups) {
		e.groups = e.groups[:n+1]
	} else {
		e.groups = append(e.groups, groupBatch{})
	}
	g := &e.groups[n]
	g.vals = g.vals[:0]
	g.base, g.offsets = base, offsets
	e.label(&g.outBatch, kind, arity)
	for _, off := range offsets {
		d := base + off
		own := len(e.dest(d).batches)
		e.refs[d] = append(e.refs[d], groupRef{idx: int32(n), ownBefore: int32(own)})
	}
	return n
}

// label makes b the sender's next batch, of (kind, arity) tuples.
func (e *Emitter) label(b *outBatch, kind, arity int) {
	e.runs++
	b.kind, b.arity, b.run, b.limit = kind, arity, e.runs, math.MaxInt
	if e.pipelined {
		b.limit = e.chunkTuples * arity
	}
}

// batch returns the batch to stage (kind, arity) tuples to dest (or
// Broadcast) in: the target's last batch when it holds that kind; otherwise
// a new batch, or in a pipelined round the last batch flushed and relabelled.
func (e *Emitter) batch(dest, kind, arity int) *outBatch {
	sb := e.buf(dest)
	if n := len(sb.batches); n > 0 {
		switch last := &sb.batches[n-1]; {
		case last.kind == kind && last.arity == arity:
			return last
		case e.pipelined:
			e.spill(dest, last)
			e.label(last, kind, arity)
			return last
		}
	}
	b := sb.openNew()
	e.label(b, kind, arity)
	return b
}

// group is batch for the subcube base+offsets[·], as an index of e.groups:
// the sender's latest batch for it, if any, is referenced under its first member.
func (e *Emitter) group(base int, offsets []int, kind, arity int) int {
	if first := base + offsets[0]; first >= 0 && first < len(e.refs) {
		refs := e.refs[first]
		for i := len(refs) - 1; i >= 0; i-- {
			if g := &e.groups[refs[i].idx]; g.targets(base, offsets) {
				switch {
				case g.kind == kind && g.arity == arity:
					return int(refs[i].idx)
				case e.pipelined:
					e.spillGroup(g)
					e.label(&g.outBatch, kind, arity)
					return int(refs[i].idx)
				}
				break
			}
		}
	}
	return e.openGroup(base, offsets, kind, arity)
}

// EmitTuple sends one tuple of the given kind to dest (or Broadcast). This
// is the fast path for per-tuple routing decisions; the values are copied
// into the sender's batch buffer for dest.
func (e *Emitter) EmitTuple(dest, kind int, tuple []int64) {
	if len(tuple) == 0 {
		panic("engine: cannot emit an empty tuple")
	}
	b := e.batch(dest, kind, len(tuple))
	b.vals = appendTuple(b.vals, tuple)
	if len(b.vals) >= b.limit {
		e.spill(dest, b)
	}
}

// EmitRouted sends every tuple of vals, a row-major block of atom kind's
// tuples, to its destination subcube D(t) of eq. (9) in block b under family
// f: b.Routes[kind].Base plus the route's offsets at the block's offset. A
// tuple whose repeated variable falls in two bins goes nowhere. It stages
// exactly what one EmitFanout per tuple would, but looks up and checks each
// target once per call. Every strategy's join routing is this call.
func (e *Emitter) EmitRouted(b *hashing.Block, f *hashing.Family, kind, arity int, vals []int64) {
	r := b.Routes[kind]
	switch {
	case arity < 1:
		panic("engine: routed arity must be positive")
	case len(vals)%arity != 0:
		panic(fmt.Sprintf("engine: routed block of %d values is not a multiple of arity %d", len(vals), arity))
	case r.Width() > arity:
		panic(fmt.Sprintf("engine: the route of kind %d reads column %d of arity-%d tuples", kind, r.Width()-1, arity))
	}
	first, offsets := b.Offset, r.Offsets()
	for ; len(vals) > 0; vals = vals[arity:] {
		t := vals[:arity:arity]
		base, ok := r.Base(f, t)
		if !ok {
			continue
		}
		d := first + base
		if uint(d) >= uint(len(e.perDest)) || e.perDest[d].slot == 0 {
			e.checkDest(d)
			var i int
			if len(offsets) == 1 {
				e.batch(d, kind, arity)
				i = len(e.perDest[d].batches) - 1
			} else {
				i = e.group(d, offsets, kind, arity)
			}
			e.perDest[d].slot = int32(i + 1)
			e.slotted = append(e.slotted, int32(d))
		}
		i := e.perDest[d].slot - 1
		if len(offsets) == 1 {
			bt := &e.perDest[d].batches[i]
			if bt.vals = appendTuple(bt.vals, t); len(bt.vals) >= bt.limit {
				e.spill(d, bt)
			}
		} else {
			g := &e.groups[i]
			if g.vals = appendTuple(g.vals, t); len(g.vals) >= g.limit {
				e.spillGroup(g)
			}
		}
	}
	for _, d := range e.slotted {
		e.perDest[d].slot = 0
	}
	e.slotted = e.slotted[:0]
}

// EmitFanout sends one tuple to the destination subcube base+offsets[·] —
// the multicast form of EmitTuple; EmitRouted stages blocks into the same
// groups. Every member receives the tuple and is charged for it, but the
// tuple is staged once and landed once, in the arena of the group's first
// member base+offsets[0]; see Cluster.Round for where it sits in each
// member's delivery order. A group of one stages exactly as EmitTuple.
// offsets is retained until the round has been delivered and must not
// change meanwhile.
func (e *Emitter) EmitFanout(base int, offsets []int, kind int, tuple []int64) {
	if len(tuple) == 0 {
		panic("engine: cannot emit an empty tuple")
	}
	switch len(offsets) {
	case 0:
	case 1:
		e.EmitTuple(base+offsets[0], kind, tuple)
	default:
		g := &e.groups[e.group(base, offsets, kind, len(tuple))]
		g.vals = appendTuple(g.vals, tuple)
		if len(g.vals) >= g.limit {
			e.spillGroup(g)
		}
	}
}

// appendTuple is append(dst, tuple...) for the handful of values a routed
// tuple has: when dst has room, copying in place avoids the memmove call,
// which costs more than the copy at this size.
func appendTuple(dst, tuple []int64) []int64 {
	n := len(dst)
	if n+len(tuple) > cap(dst) {
		return append(dst, tuple...)
	}
	dst = dst[:n+len(tuple)]
	for i, v := range tuple {
		dst[n+i] = v
	}
	return dst
}

// EmitBatch sends a whole flat block of same-kind tuples (len(vals) must be
// a multiple of arity) to dest (or Broadcast) in one call — the bulk path
// for algorithms that route contiguous runs of tuples to one destination.
func (e *Emitter) EmitBatch(dest, kind, arity int, vals []int64) {
	if arity < 1 {
		panic("engine: batch arity must be positive")
	}
	if len(vals)%arity != 0 {
		panic(fmt.Sprintf("engine: batch of %d values is not a multiple of arity %d", len(vals), arity))
	}
	if len(vals) == 0 {
		return
	}
	b := e.batch(dest, kind, arity)
	for len(vals) > 0 {
		n := min(len(vals), b.limit-len(b.vals))
		b.vals = append(b.vals, vals[:n]...)
		vals = vals[n:]
		if len(b.vals) >= b.limit {
			e.spill(dest, b)
		}
	}
}

// Cluster simulates p MPC servers, or, attached to a transport whose process
// owns only some of them, that process's share of the servers: it seeds,
// evaluates and lands its owned servers alone, and still meters every
// server's receive accounting, so every process records the same rounds. A
// Cluster is not safe for concurrent use by multiple goroutines; the
// parallelism lives inside Round.
type Cluster struct {
	p            int
	bitsPerValue int
	inbox        []*Inbox    // current contents of each server's inbox
	spare        []*Inbox    // previous round's inboxes, recycled as delivery targets
	emitters     []*Emitter  // emitterSet[:p]
	emitterSet   *[]*Emitter // the pooled set the emitters came from
	recvBits     []float64
	recvTuples   []int
	rounds       []RoundStats
	loadCap      float64 // 0 = unlimited; otherwise rounds flag Aborted
	link         Link    // non-nil when delivery goes through a Transport

	// lo, hi bound the servers this process owns, [0, p) unless a link
	// owns part of them (PartialLink.Owned): only owned servers are seeded, run
	// round functions and computation phases, and have their inboxes
	// landed. gathers counts the cluster's output gathers (Gather).
	lo, hi  int
	gathers int

	// landed is the staging the last round was landed from: the cluster's
	// emitters, or, over a link, the link's receive-side emitters for the
	// senders another process owns (see EachBroadcast).
	landed []*Emitter

	// streamChunk > 0 enables chunked streaming rounds (SetStreamChunk):
	// pipelined mid-emission flushes when link is nil; over a transport the
	// round stages as in barrier mode. destMu guards the spare
	// inboxes during concurrent pipelined flushes; mem, when set, receives
	// the per-round engine-buffer high-water (see stream.go).
	streamChunk int
	destMu      []sync.Mutex
	mem         *MemGauge

	// tr receives round/phase spans when the run carries a Trace (see
	// NewClusterEnv); nil — the default — disables tracing, and every
	// tracing branch below is gated on that nil check so the disabled
	// path costs a predicted branch and zero allocations.
	tr *obs.ClusterTrace

	// runCtx / runTrace are the Env's request context and run trace,
	// threaded into every DeliveryRound so a network transport can honor
	// cancellation and report injected faults. Both nil by default.
	runCtx   context.Context
	runTrace *obs.Trace
}

// inboxPool recycles inbox arenas across clusters, so a service executing a
// stream of queries reuses the same backing memory instead of growing fresh
// arenas for every Run. Inboxes enter the pool only through
// Cluster.Release, already reset; their arena/span capacity is retained.
var inboxPool = sync.Pool{New: func() any { return &Inbox{} }}

// emitterPool recycles emitter staging — the per-target batch buffers — the
// same way, one whole cluster's emitters per entry so server s keeps meeting
// the buffers server s filled last time. Sets enter the pool only through
// Cluster.Release, detached from their cluster; whatever they still hold is
// emptied by the reset that opens every Round. A set taken for a larger
// cluster is extended, one taken for a smaller cluster is used as a prefix.
var emitterPool = sync.Pool{New: func() any { return new([]*Emitter) }}

// NewCluster creates a cluster of p servers exchanging values of
// bitsPerValue bits each (⌈log₂ n⌉ for domain [n]). Inbox arenas and
// emitter staging are drawn from shared pools; call Release when the run's
// results have been copied out to hand them back.
func NewCluster(p, bitsPerValue int) *Cluster {
	if p < 1 {
		panic("engine: need at least one server")
	}
	if bitsPerValue < 1 {
		panic("engine: bitsPerValue must be positive")
	}
	c := &Cluster{
		p:            p,
		bitsPerValue: bitsPerValue,
		inbox:        make([]*Inbox, p),
		spare:        make([]*Inbox, p),
		emitterSet:   emitterPool.Get().(*[]*Emitter),
		recvBits:     make([]float64, p),
		recvTuples:   make([]int, p),
		hi:           p,
	}
	for len(*c.emitterSet) < p {
		*c.emitterSet = append(*c.emitterSet, &Emitter{self: len(*c.emitterSet)})
	}
	c.emitters = (*c.emitterSet)[:p]
	for s := 0; s < p; s++ {
		c.inbox[s] = inboxPool.Get().(*Inbox)
		c.spare[s] = inboxPool.Get().(*Inbox)
		c.emitters[s].c = c
	}
	obsClustersTotal.Inc()
	return c
}

// Release returns the cluster's inbox arenas and emitter staging to the
// shared pools for reuse by later clusters, and closes the cluster's
// transport link, if any. It must be the last use of the cluster: every
// Inbox, Batch, or tuple view previously obtained from it is invalidated
// (round statistics, being plain values, stay valid). Release is idempotent.
func (c *Cluster) Release() {
	if c.link != nil {
		_ = c.link.Close()
		c.link = nil
	}
	c.landed = nil
	for s := 0; s < c.p; s++ {
		if c.inbox[s] != nil {
			c.inbox[s].reset()
			inboxPool.Put(c.inbox[s])
			c.inbox[s] = nil
		}
		if c.spare[s] != nil {
			c.spare[s].reset()
			inboxPool.Put(c.spare[s])
			c.spare[s] = nil
		}
	}
	if c.emitterSet != nil {
		for _, e := range c.emitters {
			e.c = nil
		}
		emitterPool.Put(c.emitterSet)
		c.emitterSet, c.emitters = nil, nil
	}
}

// P returns the number of servers.
func (c *Cluster) P() int { return c.p }

// Owned returns the servers [lo, hi) this process owns: [0, p) in process,
// the link's share over a PartialLink. Only owned servers hold
// inboxes, emit and compute; see Cluster.
func (c *Cluster) Owned() (lo, hi int) { return c.lo, c.hi }

// owns reports whether server s is one of the cluster's owned servers.
func (c *Cluster) owns(s int) bool { return s >= c.lo && s < c.hi }

// BitsPerValue returns the configured per-value bit width.
func (c *Cluster) BitsPerValue() int { return c.bitsPerValue }

// Seed places one initial input tuple directly into a server's inbox
// without charging communication — the partitioned-input assumption of
// Section 2.1. Consecutive same-kind seeds coalesce into one batch. A seed
// for a server another process owns is dropped: that process seeds it.
func (c *Cluster) Seed(server, kind int, tuple []int64) {
	if c.owns(server) {
		c.inbox[server].appendBlock(kind, len(tuple), tuple)
	}
}

// SeedBatch seeds a whole flat block of same-kind tuples at once.
func (c *Cluster) SeedBatch(server, kind, arity int, vals []int64) {
	if len(vals) == 0 || !c.owns(server) {
		return
	}
	c.inbox[server].appendBlock(kind, arity, vals)
}

// SeedRoundRobin deals a relation's flat row-major tuples over servers
// [0, servers): tuple i goes to server i mod servers — the partitioned
// input of Section 2.1, free like every seed. It is the one-relation case of
// SeedRelations: the inboxes end up exactly as one Seed call per tuple would
// leave them.
func (c *Cluster) SeedRoundRobin(servers, kind, arity int, vals []int64) {
	c.deal(servers, []dealt{{kind, arity, vals}})
}

// SeedPartitioned deals the relation of every atom of q, message kind = atom
// index, round-robin over servers [0, servers) — the partitioned input of
// Section 2.1 every one-round strategy starts from.
func (c *Cluster) SeedPartitioned(servers int, q *query.Query, db *data.Database) {
	rels := make([]*data.Relation, len(q.Atoms))
	for j, a := range q.Atoms {
		rels[j] = db.Get(a.Name)
	}
	c.SeedRelations(servers, rels)
}

// SeedRelations deals every relation, message kind = its index in rels,
// round-robin over servers [0, servers), as one SeedRoundRobin per relation
// in order would: each server's share of rels[0], then of rels[1], and so
// on.
func (c *Cluster) SeedRelations(servers int, rels []*data.Relation) {
	ds := make([]dealt, len(rels))
	for j, rel := range rels {
		ds[j] = dealt{j, rel.Arity, rel.Vals()}
	}
	c.deal(servers, ds)
}

// dealt is one relation's flat tuples, dealt round-robin under one kind.
type dealt struct {
	kind, arity int
	vals        []int64
}

// deal seeds every relation of ds in order, tuple i of each going to server
// i mod servers. The owned servers are filled in parallel, each growing its
// arena once for its share of all the relations; an inbox ends up exactly
// as one Seed call per tuple, relation after relation, would leave it.
func (c *Cluster) deal(servers int, ds []dealt) {
	if servers < 1 || servers > c.p {
		panic(fmt.Sprintf("engine: cannot deal input over %d of %d servers", servers, c.p))
	}
	for _, d := range ds {
		if d.arity < 1 || len(d.vals)%d.arity != 0 {
			panic(fmt.Sprintf("engine: seed of %d values is not a multiple of arity %d", len(d.vals), d.arity))
		}
	}
	// count is server s's share of one relation's m tuples.
	count := func(d dealt, s int) int { return (len(d.vals)/d.arity - s + servers - 1) / servers }
	ParallelFor(min(c.hi, servers)-c.lo, func(i int) {
		s, ib := c.lo+i, c.inbox[c.lo+i]
		grow := 0
		for _, d := range ds {
			grow += count(d, s) * d.arity
		}
		ib.arena = slices.Grow(ib.arena, grow)
		for _, d := range ds {
			if count(d, s) == 0 {
				continue
			}
			start := len(ib.arena)
			for off := s * d.arity; off < len(d.vals); off += servers * d.arity {
				ib.arena = appendTuple(ib.arena, d.vals[off:off+d.arity])
			}
			ib.addSpan(d.kind, d.arity, nil, start, len(ib.arena))
		}
	})
}

// Inbox returns the batches currently held by a server (the deliveries of
// the most recent round, or the seeded input before the first round). The
// inbox of a server another process owns is empty.
func (c *Cluster) Inbox(server int) *Inbox { return c.inbox[server] }

// EachBroadcast calls f for every tuple broadcast in the last round, in
// delivery order, read from the staging that round was landed from — how a
// process that owns no server of a linked cluster reads what every server
// received. It is valid until the next Round and visits nothing after a
// pipelined round, whose broadcasts were flushed as they were staged.
func (c *Cluster) EachBroadcast(f func(kind int, tuple []int64)) {
	for _, em := range c.landed {
		for _, b := range em.bcast.batches {
			for vals := b.vals; len(vals) >= b.arity; vals = vals[b.arity:] {
				f(b.kind, vals[:b.arity:b.arity])
			}
		}
	}
}

// Round executes one MPC round: every owned server runs f concurrently over
// its current inbox, emitting batches; the engine then delivers all
// emissions in parallel (sharded by destination), replacing each owned
// inbox with what the server received, and records load statistics — of
// every server, owned or not, so every process records the same round.
//
// Delivery order is deterministic, and the same for barrier, pipelined and
// link delivery: per destination, senders ascending; within one sender, its
// batches in the order it opened them, then its broadcasts. A batch is a
// maximal run of same-kind tuples the sender emitted to one target — a server
// (EmitTuple, EmitBatch, EmitRouted at fan-out 1) or a subcube (EmitFanout,
// EmitRouted) — with no tuple of another kind to that target in between;
// tuples keep their emission order, or block order, inside a batch. For a
// sender that only emits to single servers this is emission order per
// destination. A sender that interleaves, tuple by tuple, two
// targets sharing a destination has that destination receive one target's
// batch after the other's, not the interleaving.
func (c *Cluster) Round(name string, f func(server int, inbox *Inbox, emit *Emitter)) RoundStats {
	// Computation + emission phase: every server concurrently on a small
	// worker set (ParallelFor), not a goroutine per server — skew-aware
	// layouts routinely span hundreds of servers, and per-server goroutine
	// spawning would dominate small rounds. ParallelFor re-raises server
	// panics on the caller's goroutine, so callers see them as ordinary
	// panics. Every timestamp comes from the trace's stopwatch, which reads
	// no clock on an untraced cluster.
	t0 := c.tr.Start()
	pipelined := c.streamChunk > 0 && c.link == nil
	for s := 0; s < c.p; s++ {
		c.emitters[s].reset(pipelined)
	}
	if pipelined {
		// Pipelined rounds retire the previous arenas up front: full chunks
		// flush into the spare inboxes concurrently with emission, under
		// per-destination locks, so the spares must be empty before the
		// first emitted value rather than at delivery time.
		if c.destMu == nil {
			c.destMu = make([]sync.Mutex, c.p)
		}
		for d := 0; d < c.p; d++ {
			c.spare[d].reset()
		}
	}
	// When tracing, each server's closure is individually timed so the
	// trace can show per-server emit spans (the skew the load L is about).
	var serverSecs []float64
	if c.tr != nil {
		serverSecs = make([]float64, c.hi-c.lo)
	}
	ParallelFor(c.hi-c.lo, func(i int) {
		s := c.lo + i
		ts := c.tr.Start()
		f(s, c.inbox[s], c.emitters[s])
		if serverSecs != nil {
			serverSecs[i] = c.tr.Seconds(ts)
		}
	})
	computeDur := c.tr.Seconds(t0)

	// Delivery phase, through the transport seam: the default (no link) is
	// DeliverLocal — sharded by destination, each destination collecting its
	// batches from every sender in sender order into a recycled arena, a
	// multicast batch landing once for its whole group. A linked cluster
	// hands the round to its Transport instead, which must reproduce the same
	// delivery order (see Link.Deliver); a delivery error aborts the run via
	// panic, mapped to a typed error at the API boundary.
	t1 := c.tr.Start()
	var destSecs []float64
	c.landed = nil
	if pipelined {
		// Most of the round's traffic already flushed during emission; what
		// remains is the leftover partial chunks, then each destination
		// finalizes: its tagged spans sort into exactly the barrier delivery
		// order and its receive accounting accumulates from the span
		// lengths (integral bit counts, so float accumulation is exact).
		ParallelFor(c.p, func(s int) { c.emitters[s].flushPending() })
		if c.tr != nil {
			destSecs = make([]float64, c.p)
		}
		ParallelFor(c.p, func(d int) {
			td := c.tr.Start()
			bits, tuples := c.spare[d].finalizeStream(c.bitsPerValue)
			c.recvBits[d] = bits
			c.recvTuples[d] = tuples
			if destSecs != nil {
				destSecs[d] = c.tr.Seconds(td)
			}
		})
	} else {
		for d := 0; d < c.p; d++ {
			c.spare[d].reset()
		}
		io := &DeliveryRound{
			Round:        len(c.rounds),
			P:            c.p,
			BitsPerValue: c.bitsPerValue,
			Senders:      c.emitters,
			Inboxes:      c.spare,
			RecvBits:     c.recvBits,
			RecvTuples:   c.recvTuples,
			Lo:           c.lo,
			Hi:           c.hi,
			Ctx:          c.runCtx,
			Trace:        c.runTrace,
			tr:           c.tr,
		}
		if c.tr != nil {
			io.PerDestSeconds = make([]float64, c.p)
		}
		if c.link != nil {
			if err := c.link.Deliver(io); err != nil {
				panic(fmt.Errorf("engine: round %q delivery failed: %w", name, err))
			}
		} else {
			DeliverLocal(io)
		}
		destSecs = io.PerDestSeconds
		c.landed = io.Senders
	}
	commDur := c.tr.Seconds(t1)
	c.inbox, c.spare = c.spare, c.inbox
	chunkFlushes := 0
	if pipelined {
		for s := 0; s < c.p; s++ {
			chunkFlushes += c.emitters[s].flushes
		}
	}

	st := RoundStats{Name: name}
	for s := 0; s < c.p; s++ {
		if c.recvBits[s] > st.MaxRecvBits {
			st.MaxRecvBits = c.recvBits[s]
		}
		if c.recvTuples[s] > st.MaxRecvTuples {
			st.MaxRecvTuples = c.recvTuples[s]
		}
		st.TotalRecvBits += c.recvBits[s]
		st.TotalRecvTuples += c.recvTuples[s]
	}
	if c.loadCap > 0 && st.MaxRecvBits > c.loadCap {
		st.Aborted = true
	}
	c.rounds = append(c.rounds, st)
	c.observeBufferedMemory()

	obsRoundsTotal.Inc()
	obsRecvTuplesTotal.Add(int64(st.TotalRecvTuples))
	obsRecvBitsTotal.Add(st.TotalRecvBits)
	if chunkFlushes > 0 {
		obsChunkFlushesTotal.Add(int64(chunkFlushes))
	}
	if st.Aborted {
		obsRoundAborts.Inc()
	}
	if c.tr != nil {
		c.tr.ObserveRound(obs.RoundObservation{
			Name:                 name,
			ComputeStart:         t0,
			ComputeSeconds:       computeDur,
			DeliverStart:         t1,
			DeliverSeconds:       commDur,
			FirstServer:          c.lo,
			ServerComputeSeconds: serverSecs,
			DestDeliverSeconds:   destSecs,
			ChunkFlushes:         chunkFlushes,
			RecvBits:             c.recvBits,
			RecvTuples:           c.recvTuples,
			MaxRecvBits:          st.MaxRecvBits,
			TotalRecvBits:        st.TotalRecvBits,
			MaxRecvTuples:        st.MaxRecvTuples,
			TotalRecvTuples:      st.TotalRecvTuples,
			Aborted:              st.Aborted,
		})
	}
	return st
}

// Compute runs one computation phase outside a communication round: f runs
// for every owned server, over its inbox, on the ParallelForWorkers pool
// (worker ids for per-worker scratch). This is the hook strategies use for
// their final local-evaluation phase, so a traced run records it as a
// compute span per server; a phase reads only the inbox it is handed, as
// the model's local computation does.
func (c *Cluster) Compute(f func(server int, inbox *Inbox, worker int)) {
	t0 := c.tr.Start()
	var serverSecs []float64
	if c.tr != nil {
		serverSecs = make([]float64, c.hi-c.lo)
	}
	ParallelForWorkers(c.hi-c.lo, func(i, w int) {
		s := c.lo + i
		ts := c.tr.Start()
		f(s, c.inbox[s], w)
		if serverSecs != nil {
			serverSecs[i] = c.tr.Seconds(ts)
		}
	})
	c.tr.ObserveCompute(t0, c.tr.Seconds(t0), c.lo, serverSecs)
}

// SetLoadCap declares the maximum load L: any subsequent round in which a
// server receives more than capBits is flagged Aborted (the run's results
// are still available; callers decide whether to retry with a fresh seed).
// A cap of 0 removes the limit.
func (c *Cluster) SetLoadCap(capBits float64) { c.loadCap = capBits }
