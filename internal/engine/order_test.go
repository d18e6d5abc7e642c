package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// This file holds the delivery-order contract of Cluster.Round as an
// executable model: a scripted emission log goes in, the tuple sequence and
// the receive accounting every destination must end up with come out, and
// every delivery path of the engine is compared with it.

// emitOp is one scripted emitter call of kind-tagged tuples: EmitFanout to
// base+offsets[·] when offsets is set, else EmitTuple / EmitBatch to dest.
// vals holds one or more tuples of arityOf(kind).
type emitOp struct {
	dest    int
	base    int
	offsets []int
	kind    int
	vals    []int64
}

// arityOf fixes one arity per message kind, as every strategy does.
func arityOf(kind int) int { return 2 + kind%2 }

// script is an emission log: script[round][sender] lists that server's calls.
type script [][][]emitOp

func (op emitOp) play(emit *Emitter) {
	arity := arityOf(op.kind)
	switch {
	case op.offsets != nil:
		emit.EmitFanout(op.base, op.offsets, op.kind, op.vals)
	case len(op.vals) == arity:
		emit.EmitTuple(op.dest, op.kind, op.vals)
	default:
		emit.EmitBatch(op.dest, op.kind, arity, op.vals)
	}
}

// delivered is what one round leaves behind: every inbox's tuples in delivery
// order, and every server's receive accounting.
type delivered struct {
	inboxes    []string
	recvBits   []float64
	recvTuples []int
}

// run plays the script on c and reports every round.
func (sc script) run(c *Cluster) []delivered {
	var out []delivered
	for r := range sc {
		c.Round(fmt.Sprintf("scripted-%d", r), func(s int, _ *Inbox, emit *Emitter) {
			for _, op := range sc[r][s] {
				op.play(emit)
			}
		})
		d := delivered{recvBits: slices.Clone(c.recvBits), recvTuples: slices.Clone(c.recvTuples)}
		for s := 0; s < c.P(); s++ {
			d.inboxes = append(d.inboxes, inboxSnapshot(c.Inbox(s)))
		}
		out = append(out, d)
	}
	return out
}

// modelBatch is a batch of the contract: a maximal run of same-kind tuples a
// sender emitted to one target with no tuple of another kind to that target
// in between.
type modelBatch struct {
	members []int
	kind    int
	vals    []int64
}

// want computes, from the log alone, what the contract on Cluster.Round says
// each round delivers: per destination, senders ascending; within one sender
// its batches in the order it opened them.
func (sc script) want(p, bitsPerValue int) []delivered {
	var out []delivered
	for r := range sc {
		inboxes := make([]strings.Builder, p)
		d := delivered{recvBits: make([]float64, p), recvTuples: make([]int, p)}
		for s := 0; s < p; s++ {
			var batches []*modelBatch
			open := map[string]*modelBatch{} // target -> its latest batch
			for _, op := range sc[r][s] {
				target, members := fmt.Sprint("server ", op.dest), []int{op.dest}
				switch {
				case len(op.offsets) > 1:
					target, members = fmt.Sprint("subcube ", op.base, op.offsets), nil
					for _, off := range op.offsets {
						members = append(members, op.base+off)
					}
				case len(op.offsets) == 1: // a group of one is its server
					target, members = fmt.Sprint("server ", op.base+op.offsets[0]), []int{op.base + op.offsets[0]}
				}
				b := open[target]
				if b == nil || b.kind != op.kind {
					b = &modelBatch{members: members, kind: op.kind}
					open[target] = b
					batches = append(batches, b)
				}
				b.vals = append(b.vals, op.vals...)
			}
			for _, b := range batches {
				arity := arityOf(b.kind)
				for _, m := range b.members {
					for off := 0; off < len(b.vals); off += arity {
						fmt.Fprintf(&inboxes[m], "k%d%v;", b.kind, b.vals[off:off+arity])
					}
					d.recvTuples[m] += len(b.vals) / arity
					d.recvBits[m] += float64(len(b.vals) * bitsPerValue)
				}
			}
		}
		for m := range inboxes {
			d.inboxes = append(d.inboxes, inboxes[m].String())
		}
		out = append(out, d)
	}
	return out
}

// inboxSnapshot flattens an inbox to a comparable string: every tuple, in
// delivery order, with its kind — the engine's full observable content. It
// reads through Each and cross-checks Batch, so both accessors are held to
// the same order.
func inboxSnapshot(ib *Inbox) string {
	var each, batches strings.Builder
	ib.Each(func(kind int, row []int64) { fmt.Fprintf(&each, "k%d%v;", kind, row) })
	for i := 0; i < ib.NumBatches(); i++ {
		b := ib.Batch(i)
		for j := 0; j < b.NumTuples(); j++ {
			fmt.Fprintf(&batches, "k%d%v;", b.Kind, b.Tuple(j))
		}
	}
	if batches.String() != each.String() {
		panic(fmt.Sprintf("inbox accessors disagree:\nEach  %s\nBatch %s", &each, &batches))
	}
	return each.String()
}

// replayCut is the number of tuples replayLink restages a batch in per piece,
// as a transport cuts a record into frames at its body cap.
const replayCut = 3

// replayLink is the smallest Link that honours the delivery contract the way
// a network transport does: every sender's staging is walked (WalkStaged),
// restaged on a fresh receive-side emitter in pieces of replayCut tuples,
// each continued with StageMore, and the restaged round is landed by
// DeliverLocal.
type replayLink struct{}

func (replayLink) Deliver(io *DeliveryRound) error {
	landed := *io
	landed.Senders = make([]*Emitter, io.P)
	for s, em := range io.Senders {
		recv := &Emitter{}
		recv.Restage(io.P)
		em.WalkStaged(func(it Staged) { restage(recv, it, replayCut) })
		landed.Senders[s] = recv
	}
	DeliverLocal(&landed)
	return nil
}

// restage stages one walked batch on a receive-side emitter in pieces of at
// most chunk tuples (one piece when chunk is 0), as a transport that cut it
// into frames does.
func restage(em *Emitter, it Staged, chunk int) {
	step := len(it.Vals)
	if chunk > 0 {
		step = min(step, chunk*it.Arity)
	}
	var dst []int64
	if it.Offsets != nil {
		dst = em.StageGroup(it.Base, it.Offsets, it.Kind, it.Arity, step)
	} else {
		dst = em.StageBatch(it.Dest, it.Kind, it.Arity, step)
	}
	for vals := it.Vals[copy(dst, it.Vals):]; len(vals) > 0; {
		vals = vals[copy(em.StageMore(min(step, len(vals))), vals):]
	}
}

func (replayLink) Close() error { return nil }

// localLink is the in-process transport's link: DeliverLocal behind the seam.
type localLink struct{}

func (localLink) Deliver(io *DeliveryRound) error { DeliverLocal(io); return nil }
func (localLink) Close() error                    { return nil }

// deliveryMode is one way a cluster can be set up to deliver a round.
type deliveryMode struct {
	name  string
	chunk int  // 0 = barrier
	link  Link // nil = in-process
}

func (m deliveryMode) apply(c *Cluster) {
	c.SetStreamChunk(m.chunk)
	c.link = m.link
}

// deliveryModes covers the engine's delivery paths: barrier, pipelined at
// four chunk sizes, and link delivery — restaged in cut pieces and through
// DeliverLocal, unstreamed and staged.
var deliveryModes = []deliveryMode{
	{name: "barrier"},
	{name: "pipelined/1", chunk: 1},
	{name: "pipelined/3", chunk: 3},
	{name: "pipelined/7", chunk: 7},
	{name: "pipelined/2^20", chunk: 1 << 20},
	{name: "link", link: replayLink{}},
	{name: "link/staged-3", chunk: 3, link: replayLink{}},
	{name: "link/local", link: localLink{}},
	{name: "link/local-staged-3", chunk: 3, link: localLink{}},
}

// checkDelivered compares what a cluster delivered with the model, tuple for
// tuple and bit for bit.
func checkDelivered(t *testing.T, label string, got, want []delivered) {
	t.Helper()
	for r := range want {
		for s := range want[r].inboxes {
			if got[r].inboxes[s] != want[r].inboxes[s] {
				t.Errorf("%s: round %d server %d received\n %s\nthe contract says\n %s", label, r, s, got[r].inboxes[s], want[r].inboxes[s])
			}
			if got[r].recvBits[s] != want[r].recvBits[s] || got[r].recvTuples[s] != want[r].recvTuples[s] {
				t.Errorf("%s: round %d server %d charged %v bits / %d tuples, the contract says %v / %d", label, r, s,
					got[r].recvBits[s], got[r].recvTuples[s], want[r].recvBits[s], want[r].recvTuples[s])
			}
		}
	}
}

// tuple builds one tuple of kind whose values name its sender and position.
func tuple(kind, sender, i int) []int64 {
	return []int64{int64(sender), int64(i), int64(100*sender + i)}[:arityOf(kind)]
}

// contractScript scripts, for p = 6, exactly the emission shapes the contract
// has a rule for; the comments give what it says.
func contractScript() script {
	g123, g234 := []int{0, 1, 2}, []int{0, 1, 2} // equal tables, distinct slices
	all := []int{0, 1, 2, 3, 4, 5}
	uni := func(dest, kind, sender, i int) emitOp {
		return emitOp{dest: dest, kind: kind, vals: tuple(kind, sender, i)}
	}
	fan := func(base int, offsets []int, kind, sender, i int) emitOp {
		return emitOp{base: base, offsets: offsets, kind: kind, vals: tuple(kind, sender, i)}
	}
	round0 := [][]emitOp{
		// Overlapping groups {1,2,3} and {2,3,4}, interleaved tuple by tuple:
		// servers 2 and 3 get the first group's batch (tuples 0 and 2), then
		// the second's (tuple 1).
		0: {fan(1, g123, 0, 0, 0), fan(2, g234, 0, 0, 1), fan(1, []int{0, 1, 2}, 0, 0, 2)},
		// A group of one is its server: one batch of three tuples for 5.
		1: {fan(5, []int{0}, 1, 1, 0), uni(5, 1, 1, 1), fan(3, []int{2}, 1, 1, 2)},
		// A group containing its sender, fed alternating kinds: three batches.
		2: {fan(0, []int{0, 2, 4}, 0, 2, 0), fan(0, []int{0, 2, 4}, 1, 2, 1), fan(0, []int{0, 2, 4}, 0, 2, 2)},
		// Unicast, a subcube and the whole grid to server 4, in the order the
		// sender opened them: the unicast batch (tuples 0 and 3, nothing else
		// went to that target in between), the subcube's (1 and 4), then the
		// whole grid's (2).
		3: {uni(4, 0, 3, 0), fan(3, g123, 0, 3, 1), fan(0, all, 0, 3, 2), uni(4, 0, 3, 3), fan(3, g123, 0, 3, 4)},
		// Bulk emission and an unsorted table: members 1, 4, 2 in that order.
		4: {
			{dest: 2, kind: 1, vals: slices.Concat(tuple(1, 4, 0), tuple(1, 4, 1), tuple(1, 4, 2))},
			fan(0, all, 0, 4, 3), fan(0, all, 0, 4, 4),
			fan(1, []int{0, 3, 1}, 1, 4, 5), uni(2, 1, 4, 6),
		},
		5: nil,
	}
	return script{round0, make([][]emitOp, 6), round0}
}

// randomScript draws nRounds rounds of 30 calls per server: unicast tuples
// and blocks, fan-outs to every server, and fan-outs over a few shared offset
// tables, so that groups overlap, share first members and are fed by many
// senders.
func randomScript(seed int64, p, nRounds int) script {
	tables := [][]int{{0, 2, 1}, {0, 1}, {0, 3, 1, 2}, {1, 0}, {0}}
	all := make([]int, p)
	for d := range all {
		all[d] = d
	}
	sc := make(script, nRounds)
	for r := range sc {
		sc[r] = make([][]emitOp, p)
		for s := range sc[r] {
			rng := rand.New(rand.NewSource(seed + int64(r*1000+s)))
			for i := 0; i < 30; i++ {
				kind := rng.Intn(3)
				block := tuple(kind, s, i)
				for j := rng.Intn(4); j > 0; j-- {
					block = append(block, tuple(kind, s, 100*j+i)...)
				}
				switch rng.Intn(6) {
				case 0:
					sc[r][s] = append(sc[r][s], emitOp{dest: rng.Intn(p), kind: kind, vals: tuple(kind, s, i)})
				case 1:
					sc[r][s] = append(sc[r][s], emitOp{dest: rng.Intn(p), kind: kind, vals: block})
				case 2, 3:
					sc[r][s] = append(sc[r][s], emitOp{offsets: all, kind: kind, vals: tuple(kind, s, i)})
				default:
					sc[r][s] = append(sc[r][s], emitOp{base: rng.Intn(p - 3), offsets: tables[rng.Intn(len(tables))], kind: kind, vals: tuple(kind, s, i)})
				}
			}
		}
	}
	return sc
}

// checkModes plays sc on a fresh cluster in every delivery mode and compares
// each with the model.
func checkModes(t *testing.T, label string, sc script, p, bits int) {
	t.Helper()
	want := sc.want(p, bits)
	for _, mode := range deliveryModes {
		c := NewCluster(p, bits)
		mode.apply(c)
		checkDelivered(t, label+" "+mode.name, sc.run(c), want)
		c.Release()
	}
}

// TestDeliveryOrderContract holds every delivery path to the contract on
// Cluster.Round for the shapes it has a rule for — played twice, around an
// empty round, so that recycled staging and arenas are covered.
func TestDeliveryOrderContract(t *testing.T) {
	checkModes(t, "scripted", contractScript(), 6, 10)
}

// TestPipelinedDeliveryMatchesBarrier is the engine-level differential on a
// random emission log: barrier delivery, pipelined streaming at several chunk
// sizes and link delivery must all produce what the contract says — the same
// tuples, kinds and order in every inbox and identical receive accounting —
// independently of when chunks physically flush.
func TestPipelinedDeliveryMatchesBarrier(t *testing.T) {
	checkModes(t, "random", randomScript(1, 5, 3), 5, 10)
}

// TestEmitFanoutMatchesEmitTuple: for the emission every strategy performs —
// each (destination, kind) fed through one target — replicating with one
// EmitFanout and with one EmitTuple per member deliver the same inboxes and
// the same accounting on every path; and a member out of range panics.
func TestEmitFanoutMatchesEmitTuple(t *testing.T) {
	const p, bits = 6, 9
	offsets := []int{0, 3, 1, 4}
	fanned, looped := make(script, 1), make(script, 1)
	fanned[0], looped[0] = make([][]emitOp, p), make([][]emitOp, p)
	for s := 0; s < p; s++ {
		// Kind by kind, as a server routes its seeded input; kinds 0 and 2
		// travel through the subcube at base 0, kind 1 through the one at 1,
		// and the two share servers 1 and 4.
		for kind := 0; kind < 3; kind++ {
			for i := 0; i < 2+s%2; i++ {
				fanned[0][s] = append(fanned[0][s], emitOp{base: kind % 2, offsets: offsets, kind: kind, vals: tuple(kind, s, i)})
				for _, off := range offsets {
					looped[0][s] = append(looped[0][s], emitOp{dest: kind%2 + off, kind: kind, vals: tuple(kind, s, i)})
				}
			}
		}
	}
	checkDelivered(t, "the model itself", fanned.want(p, bits), looped.want(p, bits))
	checkModes(t, "fan-out", fanned, p, bits)
	checkModes(t, "per member", looped, p, bits)

	for _, chunk := range []int{0, 3} {
		func() {
			c := NewCluster(p, bits)
			defer c.Release()
			c.SetStreamChunk(chunk)
			defer func() {
				if recover() == nil {
					t.Fatalf("chunk %d: fan-out past the last server did not panic", chunk)
				}
			}()
			c.Round("bad", func(s int, _ *Inbox, emit *Emitter) {
				emit.EmitFanout(p-2, offsets, 0, []int64{1})
			})
		}()
	}
}

// TestPooledStagingIsClean is the pool-hygiene differential for recycled
// staging and arenas: clusters of p = 64 → 7 → 100 run back to back on every
// delivery path, each preceded by a cluster of another size and mode whose
// round function panics after its servers staged unicast, multicast and
// whole-grid output, and which is released dirty. Every run must deliver what
// the contract says — no stale batch, no stale group — and a released inbox
// must hold no span at all, in particular none into another inbox's arena.
func TestPooledStagingIsClean(t *testing.T) {
	sizes := []int{64, 7, 100}
	reused := 0
	for i, mode := range deliveryModes {
		p := sizes[i%3]
		sc := randomScript(int64(i), p, 2)
		want := sc.want(p, 10)

		func() {
			c := NewCluster(p/2+5, 10)
			defer c.Release()
			defer func() {
				if recover() == nil {
					t.Fatal("poison round did not panic")
				}
			}()
			deliveryModes[(i+1)%len(deliveryModes)].apply(c)
			all := make([]int, c.P())
			for d := range all {
				all[d] = d
			}
			c.Round("poison", func(s int, _ *Inbox, emit *Emitter) {
				emit.EmitBatch(s/2, 1, 2, []int64{-1, -1, -2, -2, -3, -3, -4, -4})
				emit.EmitFanout(s/3, []int{0, 2, 1}, 0, []int64{-5, -5})
				emit.EmitFanout(0, all, 2, []int64{-9})
				if s == c.P()/2 {
					panic("engine: poisoned round")
				}
			})
		}()

		c := NewCluster(p, 10)
		if cap(c.emitters[0].touched) > 0 {
			reused++
		}
		mode.apply(c)
		checkDelivered(t, fmt.Sprintf("p=%d %s", p, mode.name), sc.run(c), want)
		held := append(slices.Clone(c.inbox), c.spare...)
		c.Release()
		for _, ib := range held {
			if len(ib.arena) != 0 || len(ib.spans) != 0 || len(ib.regions) != 0 {
				t.Fatalf("p=%d %s: a released inbox still holds tuples", p, mode.name)
			}
			for _, sp := range ib.spans[:cap(ib.spans)] {
				if sp.owner != nil {
					t.Fatalf("p=%d %s: a released inbox still references another inbox's arena", p, mode.name)
				}
			}
			for _, r := range ib.regions[:cap(ib.regions)] {
				if r.offsets != nil {
					t.Fatalf("p=%d %s: a released inbox still references a group's offset table", p, mode.name)
				}
			}
		}
	}
	if reused == 0 {
		t.Fatal("no run drew recycled emitters: the test did not exercise the pool")
	}
}

// TestKindViews: a kind reads in place exactly when its tuples lie in one
// piece — every member of a subcube then reads the same memory, landed once —
// and is reported scattered when two targets, or several unicast senders next
// to another kind, fed it.
func TestKindViews(t *testing.T) {
	const p = 6
	group := []int{0, 2, 1}
	c := NewCluster(p, 8)
	defer c.Release()
	c.Round("views", func(s int, _ *Inbox, emit *Emitter) {
		if s > 2 {
			return
		}
		emit.EmitFanout(1, group, 0, tuple(0, s, 0))       // kind 0: one subcube {1,3,2}, other kinds in between
		emit.EmitFanout(1, group, 1, tuple(1, s, 1))       // kind 1: the same subcube …
		emit.EmitFanout(2, []int{0, 1}, 1, tuple(1, s, 2)) // … and a second one, {2,3}
		emit.EmitFanout(1, group, 0, tuple(0, s, 3))
		emit.EmitTuple(1, 2, tuple(2, s, 4)) // kind 2: unicast to 1, from three senders
		emit.EmitTuple(1, 3, tuple(3, s, 5)) // kind 3 in between
		emit.EmitTuple(5, 2, tuple(2, s, 6)) // server 5: only kind 2, one coalesced batch
	})
	views := func(s int) []KindView {
		v := make([]KindView, 5)
		c.Inbox(s).KindViews(v)
		return v
	}
	concat := func(s, kind int) []int64 {
		var vals []int64
		c.Inbox(s).Each(func(k int, row []int64) {
			if k == kind {
				vals = append(vals, row...)
			}
		})
		return vals
	}
	first := views(1)
	for _, s := range []int{1, 2, 3} {
		v := views(s)
		if !v[0].OK || v[0].Arity != 2 || !slices.Equal(v[0].Vals, concat(s, 0)) || len(v[0].Vals) != 12 {
			t.Errorf("server %d: kind 0 arrived through one subcube, view %+v, want %v", s, v[0], concat(s, 0))
		} else if &v[0].Vals[0] != &first[0].Vals[0] {
			t.Errorf("server %d reads its own copy of kind 0: the batch was not landed once", s)
		}
		if !v[4].OK || v[4].Arity != 0 || len(v[4].Vals) != 0 {
			t.Errorf("server %d: absent kind 4 should be an empty view, got %+v", s, v[4])
		}
	}
	if v := views(1); !v[1].OK || !slices.Equal(v[1].Vals, concat(1, 1)) {
		t.Errorf("server 1 is in one of kind 1's subcubes only: view %+v, want %v", v[1], concat(1, 1))
	}
	for _, s := range []int{2, 3} {
		if v := views(s); v[1].OK {
			t.Errorf("server %d: kind 1 arrived through two subcubes, yet is reported as a view %v", s, v[1].Vals)
		}
	}
	if v := views(1); v[2].OK || v[3].OK {
		t.Errorf("server 1: kinds 2 and 3 arrived tuple by tuple from three senders, yet are reported as views: %+v", v[2:4])
	}
	if v := views(5); !v[2].OK || !slices.Equal(v[2].Vals, concat(5, 2)) {
		t.Errorf("server 5 holds kind 2 in one batch: view %+v, want %v", v[2], concat(5, 2))
	}

	// A link restages the round and lands it through DeliverLocal: every
	// kind reads in place exactly as after barrier delivery.
	round := func(s int, _ *Inbox, emit *Emitter) {
		emit.EmitFanout(1, group, 0, tuple(0, s, 0))
		emit.EmitFanout(1, group, 1, tuple(1, s, 1))
	}
	b, l := NewCluster(p, 8), NewCluster(p, 8)
	defer b.Release()
	defer l.Release()
	l.link = replayLink{}
	b.Round("views", round)
	l.Round("views", round)
	for _, s := range []int{1, 2, 3} {
		bv, lv := make([]KindView, 2), make([]KindView, 2)
		b.Inbox(s).KindViews(bv)
		l.Inbox(s).KindViews(lv)
		for k := range lv {
			if !lv[k].OK || lv[k].Arity != bv[k].Arity || !slices.Equal(lv[k].Vals, bv[k].Vals) {
				t.Errorf("server %d kind %d: link-delivered view %+v, barrier view %+v", s, k, lv[k], bv[k])
			}
		}
	}
}

// stagedRound runs, on a cluster of 8 servers with a link and chunk 2, a
// round in which every server stages own batches, multicast batches and
// batches to every server, and returns the cluster with that staging still
// in place.
func stagedRound() *Cluster {
	c := NewCluster(8, 8)
	c.SetStreamChunk(2)
	c.link = replayLink{}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	c.Round("stage", func(s int, _ *Inbox, emit *Emitter) {
		for i := 0; i < 9; i++ {
			emit.EmitTuple((s+i)%8, 0, tuple(0, s, i))
			emit.EmitFanout(s%4, []int{0, 2, 4}, 1, tuple(1, s, i))
			emit.EmitFanout(0, all, 0, tuple(0, s, i))
		}
	})
	return c
}

// TestWalkStagedAllocatesNothing: walking a sender's staging for a transport
// — own batches, multicast batches once — costs no allocation.
func TestWalkStagedAllocatesNothing(t *testing.T) {
	c := stagedRound()
	defer c.Release()
	tuples := 0
	if allocs := testing.AllocsPerRun(10, func() {
		c.emitters[3].WalkStaged(func(it Staged) { tuples += len(it.Vals) / it.Arity })
	}); allocs != 0 {
		t.Errorf("WalkStaged allocates %v objects per call", allocs)
	}
	if tuples == 0 {
		t.Fatal("nothing was staged: the test did not exercise WalkStaged")
	}
}

// TestRestageAllocatesNothing: restaging a walked round on a warm
// receive-side emitter — own batches, groups, pieces continued with
// StageMore — allocates nothing per item or group.
func TestRestageAllocatesNothing(t *testing.T) {
	c := stagedRound()
	defer c.Release()
	recv := &Emitter{}
	if allocs := testing.AllocsPerRun(10, func() {
		recv.Restage(8)
		c.emitters[3].WalkStaged(func(it Staged) { restage(recv, it, 2) })
	}); allocs != 0 {
		t.Errorf("a warm restage allocates %v objects per round", allocs)
	}
	if len(recv.groups) == 0 {
		t.Fatal("no group was restaged: the test did not exercise StageGroup")
	}
}
