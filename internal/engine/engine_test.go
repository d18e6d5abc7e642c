package engine

import (
	"slices"
	"sync/atomic"
	"testing"

	"mpcquery/internal/data"
	"mpcquery/internal/query"
)

func TestRoundDeliveryAndLoad(t *testing.T) {
	c := NewCluster(4, 10)
	c.Seed(0, 1, []int64{1, 2})
	c.Seed(1, 1, []int64{3, 4})
	st := c.Round("shuffle", func(s int, inbox *Inbox, emit *Emitter) {
		inbox.Each(func(kind int, tuple []int64) {
			emit.EmitTuple(int(tuple[0])%4, kind, tuple) // route by first value
		})
	})
	if st.TotalRecvTuples != 2 {
		t.Fatalf("total tuples=%d want 2", st.TotalRecvTuples)
	}
	if st.MaxRecvBits != 20 { // one binary tuple at 10 bits/value
		t.Fatalf("max bits=%v want 20", st.MaxRecvBits)
	}
	if ib := c.Inbox(1); ib.NumTuples() != 1 {
		t.Fatalf("server 1 inbox size %d", ib.NumTuples())
	} else if tup := ib.Batch(0).Tuple(0); tup[0] != 1 {
		t.Fatalf("server 1 inbox wrong: %v", tup)
	}
	if ib := c.Inbox(3); ib.NumTuples() != 1 {
		t.Fatalf("server 3 inbox size %d", ib.NumTuples())
	} else if tup := ib.Batch(0).Tuple(0); tup[0] != 3 {
		t.Fatalf("server 3 inbox wrong: %v", tup)
	}
	if len(c.Record(nil, 0).Rounds) != 1 {
		t.Fatalf("rounds=%d", len(c.Record(nil, 0).Rounds))
	}
}

// TestBroadcastChargesEveryReceiver pins the model's broadcast accounting:
// one broadcast tuple is charged once to EVERY one of the p receivers, both
// in tuples and in bits, under the batched parallel delivery.
func TestBroadcastChargesEveryReceiver(t *testing.T) {
	c := NewCluster(8, 4)
	c.Seed(2, 0, []int64{9})
	st := c.Round("bcast", func(s int, inbox *Inbox, emit *Emitter) {
		inbox.Each(func(kind int, tuple []int64) {
			emit.EmitTuple(Broadcast, kind, tuple)
		})
	})
	if st.TotalRecvTuples != 8 {
		t.Fatalf("broadcast should deliver to all 8: %d", st.TotalRecvTuples)
	}
	if st.MaxRecvBits != 4 {
		t.Fatalf("each receiver charged once: %v", st.MaxRecvBits)
	}
	if st.TotalRecvBits != 8*4 {
		t.Fatalf("total bits=%v want 32 (4 bits × 8 receivers)", st.TotalRecvBits)
	}
	for s := 0; s < 8; s++ {
		if c.Inbox(s).NumTuples() != 1 {
			t.Fatalf("server %d inbox %d tuples", s, c.Inbox(s).NumTuples())
		}
	}
}

// TestBroadcastBatchCharges is the EmitBatch counterpart: a whole batch
// broadcast to p servers is charged per receiver per tuple.
func TestBroadcastBatchCharges(t *testing.T) {
	c := NewCluster(4, 8)
	c.Seed(0, 3, []int64{1, 2})
	st := c.Round("bcast-batch", func(s int, inbox *Inbox, emit *Emitter) {
		if s == 0 {
			emit.EmitBatch(Broadcast, 3, 2, []int64{1, 2, 3, 4, 5, 6}) // 3 tuples
		}
	})
	if st.TotalRecvTuples != 3*4 {
		t.Fatalf("tuples=%d want 12", st.TotalRecvTuples)
	}
	if st.MaxRecvBits != 3*2*8 {
		t.Fatalf("per-receiver bits=%v want 48", st.MaxRecvBits)
	}
}

func TestSeedIsFree(t *testing.T) {
	c := NewCluster(2, 8)
	c.Seed(0, 0, []int64{1, 2, 3})
	if c.Record(nil, 0).MaxLoadBits() != 0 {
		t.Error("seeding must not count as load")
	}
	if got := c.Inbox(0).NumTuples(); got != 1 {
		t.Fatalf("inbox=%d", got)
	}
}

func TestSeedCoalescesIntoBatches(t *testing.T) {
	c := NewCluster(2, 8)
	for i := 0; i < 10; i++ {
		c.Seed(0, 0, []int64{int64(i), 0})
	}
	for i := 0; i < 5; i++ {
		c.Seed(0, 1, []int64{int64(i)})
	}
	ib := c.Inbox(0)
	if ib.NumBatches() != 2 {
		t.Fatalf("batches=%d want 2 (one per kind)", ib.NumBatches())
	}
	if b := ib.Batch(0); b.Kind != 0 || b.Arity != 2 || b.NumTuples() != 10 {
		t.Fatalf("batch 0: %+v", b)
	}
	if b := ib.Batch(1); b.Kind != 1 || b.Arity != 1 || b.NumTuples() != 5 {
		t.Fatalf("batch 1: %+v", b)
	}
	if ib.NumTuples() != 15 {
		t.Fatalf("tuples=%d want 15", ib.NumTuples())
	}
}

func TestMultiRoundStatsAndMaxLoad(t *testing.T) {
	c := NewCluster(2, 1)
	c.Seed(0, 0, []int64{1})
	c.Seed(0, 0, []int64{2})
	// Round 1: send both tuples to server 1 (load 2 bits there).
	c.Round("r1", func(s int, inbox *Inbox, emit *Emitter) {
		inbox.Each(func(kind int, tuple []int64) {
			emit.EmitTuple(1, kind, tuple)
		})
	})
	// Round 2: send one tuple back (load 1 bit).
	c.Round("r2", func(s int, inbox *Inbox, emit *Emitter) {
		if s == 1 && inbox.NumTuples() > 0 {
			b := inbox.Batch(0)
			emit.EmitTuple(0, b.Kind, b.Tuple(0))
		}
	})
	if len(c.Record(nil, 0).Rounds) != 2 {
		t.Fatalf("rounds=%d", len(c.Record(nil, 0).Rounds))
	}
	if c.Record(nil, 0).MaxLoadBits() != 2 {
		t.Fatalf("L=%v want 2 (max over rounds)", c.Record(nil, 0).MaxLoadBits())
	}
	if c.Record(nil, 0).TotalBits() != 3 {
		t.Fatalf("total=%v want 3", c.Record(nil, 0).TotalBits())
	}
	if rr := c.Record(nil, 3).ReplicationRate(); rr != 1 {
		t.Fatalf("replication=%v want 1", rr)
	}
}

func TestRoundRunsEveryServer(t *testing.T) {
	c := NewCluster(16, 1)
	var ran int32
	c.Round("noop", func(s int, inbox *Inbox, emit *Emitter) {
		atomic.AddInt32(&ran, 1)
	})
	if ran != 16 {
		t.Fatalf("ran=%d want 16", ran)
	}
}

func TestDeterministicDelivery(t *testing.T) {
	run := func() []int64 {
		c := NewCluster(4, 1)
		for s := 0; s < 4; s++ {
			c.Seed(s, 0, []int64{int64(s * 10)})
			c.Seed(s, 0, []int64{int64(s*10 + 1)})
		}
		c.Round("all-to-one", func(s int, inbox *Inbox, emit *Emitter) {
			inbox.Each(func(kind int, tuple []int64) {
				emit.EmitTuple(0, kind, tuple)
			})
		})
		var got []int64
		c.Inbox(0).Each(func(kind int, tuple []int64) {
			got = append(got, tuple[0])
		})
		return got
	}
	a, b := run(), run()
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic delivery: %v vs %v", a, b)
		}
	}
	// Batches must arrive grouped by sender in sender order.
	want := []int64{0, 1, 10, 11, 20, 21, 30, 31}
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("delivery order %v, want %v", a, want)
		}
	}
}

func TestBadDestinationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range destination should panic")
		}
	}()
	c := NewCluster(2, 1)
	c.Seed(0, 0, []int64{1})
	c.Round("bad", func(s int, inbox *Inbox, emit *Emitter) {
		inbox.Each(func(kind int, tuple []int64) {
			emit.EmitTuple(5, kind, tuple)
		})
	})
}

// TestRoundPanicPropagates: a panic in one server's round function must
// surface as an ordinary panic on the caller's goroutine, even though
// servers run concurrently and delivery is parallel.
func TestRoundPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("server panic should propagate to the Round caller")
		}
		if s, ok := r.(string); !ok || s != "server 7 exploded" {
			t.Fatalf("wrong panic value: %v", r)
		}
	}()
	c := NewCluster(16, 1)
	c.Round("boom", func(s int, inbox *Inbox, emit *Emitter) {
		if s == 7 {
			panic("server 7 exploded")
		}
		emit.EmitTuple((s+1)%16, 0, []int64{int64(s)})
	})
}

// TestRoundPanicLeavesClusterUsable: after a recovered panic no partial
// round statistics must have been recorded.
func TestRoundPanicLeavesClusterUsable(t *testing.T) {
	c := NewCluster(4, 1)
	func() {
		defer func() { recover() }()
		c.Round("boom", func(s int, inbox *Inbox, emit *Emitter) {
			panic("boom")
		})
	}()
	if len(c.Record(nil, 0).Rounds) != 0 {
		t.Fatalf("aborted round recorded stats: %d rounds", len(c.Record(nil, 0).Rounds))
	}
}

// TestConservation: total received bits equal total emitted bits (with
// broadcast counting p receivers) — the engine neither loses nor invents
// communication.
func TestConservation(t *testing.T) {
	c := NewCluster(5, 3)
	c.Seed(0, 0, []int64{1, 2})
	c.Seed(0, 1, []int64{3})
	c.Seed(2, 0, []int64{4, 5, 6})
	st := c.Round("mix", func(s int, inbox *Inbox, emit *Emitter) {
		i := 0
		inbox.Each(func(kind int, tuple []int64) {
			if i%2 == 0 {
				emit.EmitTuple(Broadcast, kind, tuple)
			} else {
				emit.EmitTuple((s+1)%5, kind, tuple)
			}
			i++
		})
	})
	// Broadcast tuples: (1,2) from s0 and (4,5,6) from s2 => (2+3)*3 bits × 5.
	// Unicast: (3) => 1*3 bits.
	want := float64((2+3)*3*5 + 1*3)
	if st.TotalRecvBits != want {
		t.Fatalf("total=%v want %v", st.TotalRecvBits, want)
	}
}

// TestEmptyRoundIsFree: a round with no emissions records zero load.
func TestEmptyRoundIsFree(t *testing.T) {
	c := NewCluster(3, 8)
	st := c.Round("idle", func(s int, inbox *Inbox, emit *Emitter) {})
	if st.TotalRecvBits != 0 || st.MaxRecvTuples != 0 {
		t.Fatalf("idle round: %+v", st)
	}
}

// TestInboxMutationDoesNotCorruptDelivery: emitted values are copied at
// emit time, so a server that mutates its inbox after emitting (or reuses
// the emitted slice) cannot corrupt what other servers receive.
func TestInboxMutationDoesNotCorruptDelivery(t *testing.T) {
	c := NewCluster(2, 4)
	c.Seed(0, 0, []int64{42, 43})
	c.Round("mutate-after-emit", func(s int, inbox *Inbox, emit *Emitter) {
		inbox.Each(func(kind int, tuple []int64) {
			emit.EmitTuple(1, kind, tuple)
			tuple[0], tuple[1] = -1, -1 // scribble over the inbox view
		})
	})
	tup := c.Inbox(1).Batch(0).Tuple(0)
	if tup[0] != 42 || tup[1] != 43 {
		t.Fatalf("delivered tuple corrupted by sender-side mutation: %v", tup)
	}
}

// TestInboxReuseAcrossRounds: the engine recycles inbox arenas two rounds
// later; a server that mutates its *current* inbox during a round must not
// corrupt the next round's deliveries, and tuple contents observed in each
// round must be exactly what the previous round emitted.
func TestInboxReuseAcrossRounds(t *testing.T) {
	const p, rounds = 4, 6
	c := NewCluster(p, 8)
	for s := 0; s < p; s++ {
		c.Seed(s, 0, []int64{int64(100 + s), int64(s)})
	}
	for r := 0; r < rounds; r++ {
		round := r
		c.Round("cycle", func(s int, inbox *Inbox, emit *Emitter) {
			inbox.Each(func(kind int, tuple []int64) {
				want := int64(100 + (int(tuple[1])+round)%p)
				if tuple[0] != want {
					panic("corrupted tuple observed")
				}
				next := []int64{int64(100 + (int(tuple[1])+round+1)%p), tuple[1]}
				emit.EmitTuple((s+1)%p, kind, next)
				tuple[0] = -999 // scribble over the current inbox
			})
		})
	}
	if len(c.Record(nil, 0).Rounds) != rounds {
		t.Fatalf("rounds=%d", len(c.Record(nil, 0).Rounds))
	}
	if c.Record(nil, 0).MaxLoadBits() != 2*8 {
		t.Fatalf("steady-state load=%v want 16", c.Record(nil, 0).MaxLoadBits())
	}
}

// TestEmitBatchMatchesEmitTuple: routing the same tuples via EmitBatch and
// via EmitTuple must produce identical inboxes and identical accounting.
func TestEmitBatchMatchesEmitTuple(t *testing.T) {
	vals := []int64{1, 2, 3, 4, 5, 6}
	run := func(batch bool) ([]int64, RoundStats) {
		c := NewCluster(3, 5)
		c.SeedBatch(0, 2, 2, vals)
		st := c.Round("r", func(s int, inbox *Inbox, emit *Emitter) {
			if batch {
				inbox.EachBatch(func(b Batch) {
					emit.EmitBatch(1, b.Kind, b.Arity, b.Vals)
				})
			} else {
				inbox.Each(func(kind int, tuple []int64) {
					emit.EmitTuple(1, kind, tuple)
				})
			}
		})
		var got []int64
		c.Inbox(1).Each(func(kind int, tuple []int64) {
			got = append(got, int64(kind))
			got = append(got, tuple...)
		})
		return got, st
	}
	a, sa := run(false)
	b, sb := run(true)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("contents differ: %v vs %v", a, b)
		}
	}
	if sa.TotalRecvBits != sb.TotalRecvBits || sa.MaxRecvTuples != sb.MaxRecvTuples {
		t.Fatalf("stats differ: %+v vs %+v", sa, sb)
	}
}

func TestEmitBatchValidation(t *testing.T) {
	c := NewCluster(2, 1)
	c.Seed(0, 0, []int64{1})
	defer func() {
		if recover() == nil {
			t.Error("ragged batch should panic")
		}
	}()
	c.Round("bad", func(s int, inbox *Inbox, emit *Emitter) {
		if s == 0 {
			emit.EmitBatch(1, 0, 2, []int64{1, 2, 3}) // not a multiple of arity
		}
	})
}

func TestInboxRandomAccess(t *testing.T) {
	c := NewCluster(1, 1)
	for i := 0; i < 7; i++ {
		c.Seed(0, 0, []int64{int64(i), 0})
	}
	for i := 0; i < 4; i++ {
		c.Seed(0, 1, []int64{int64(100 + i)})
	}
	ib := c.Inbox(0)
	if ib.NumBatches() != 2 {
		t.Fatalf("%d batches, want one per kind", ib.NumBatches())
	}
	for k, want := range [][]int64{{0, 1, 2, 3, 4, 5, 6}, {100, 101, 102, 103}} {
		b := ib.Batch(k)
		if b.Kind != k || b.NumTuples() != len(want) {
			t.Fatalf("batch %d: kind %d, %d tuples", k, b.Kind, b.NumTuples())
		}
		for i, v := range want {
			if tup := b.Tuple(i); tup[0] != v {
				t.Fatalf("batch %d tuple %d: %v, want %d first", k, i, tup, v)
			}
		}
	}
}

func TestAccessorsAndCaps(t *testing.T) {
	c := NewCluster(4, 7)
	if c.P() != 4 || c.BitsPerValue() != 7 {
		t.Fatalf("accessors: %d %d", c.P(), c.BitsPerValue())
	}
	c.SetLoadCap(10)
	c.Seed(0, 0, []int64{1, 2}) // 14 bits once delivered
	st := c.Round("over", func(s int, inbox *Inbox, emit *Emitter) {
		inbox.Each(func(kind int, tuple []int64) {
			emit.EmitTuple(1, kind, tuple)
		})
	})
	if !st.Aborted || !c.Record(nil, 0).Aborted() {
		t.Error("14 bits against a 10-bit cap should abort")
	}
	if len(c.Record(nil, 0).Rounds) != 1 {
		t.Errorf("rounds list: %d", len(c.Record(nil, 0).Rounds))
	}
	if got := c.Record(nil, 0).Rounds[0].MaxRecvTuples; got != 1 {
		t.Errorf("max tuples: %d", got)
	}
	if c.Record(nil, 0).ReplicationRate() != 0 {
		t.Error("zero input bits should give replication 0")
	}
	c.SetLoadCap(0)
	st2 := c.Round("under", func(s int, inbox *Inbox, emit *Emitter) {})
	if st2.Aborted {
		t.Error("uncapped round cannot abort")
	}
}

func TestNewClusterValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewCluster(0, 8) },
		func() { NewCluster(4, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid NewCluster should panic")
				}
			}()
			f()
		}()
	}
}

func TestEmptyTuplePanics(t *testing.T) {
	c := NewCluster(2, 1)
	c.Seed(0, 0, []int64{1})
	defer func() {
		if recover() == nil {
			t.Error("empty tuple should panic")
		}
	}()
	c.Round("bad", func(s int, inbox *Inbox, emit *Emitter) {
		if s == 0 {
			emit.EmitTuple(1, 0, nil)
		}
	})
}

// ownedTransport attaches links owning the servers [lo, hi) of every
// cluster, as one process of a group does; it delivers nothing.
type ownedTransport struct{ lo, hi int }

func (t ownedTransport) Attach(p, _ int) (Link, error) { return ownedLink(t), nil }

type ownedLink ownedTransport

func (l ownedLink) Owned(int) (lo, hi int)             { return l.lo, l.hi }
func (ownedLink) Deliver(*DeliveryRound) error         { return nil }
func (ownedLink) Gather(*GatherRound) ([]int64, error) { return nil, nil }
func (ownedLink) Close() error                         { return nil }

// TestSeedPartitionedMatchesSeed holds the parallel deal to the per-tuple
// Seed loop it replaces: every inbox's arena, span list and tuple count
// must be identical, over one server and many, a prefix of the servers,
// relations with fewer tuples than servers, an empty relation, input
// already seeded ahead of the deal, and the partial owned range of a linked
// cluster.
func TestSeedPartitionedMatchesSeed(t *testing.T) {
	q := query.MustParse("q(x,y,z) :- R(x,y), S(y), T(x,y,z), U(z,x)")
	for _, tc := range []struct {
		p, servers int
		owned      *ownedTransport
	}{
		{p: 1, servers: 1},
		{p: 3, servers: 3},
		{p: 3, servers: 2},
		{p: 64, servers: 64},
		{p: 64, servers: 40},
		{p: 64, servers: 64, owned: &ownedTransport{16, 48}},
		{p: 64, servers: 40, owned: &ownedTransport{32, 64}},
		{p: 64, servers: 20, owned: &ownedTransport{32, 64}}, // owns none of the input servers
	} {
		for _, m := range []int{0, 1, 5, 1000} {
			db := data.NewDatabase(1 << 20)
			for j, a := range q.Atoms {
				rel := data.NewRelation(a.Name, a.Arity())
				size := []int{m, 0, 3 * m, m / 2}[j] // S is empty, U shorter
				for i := 0; i < size; i++ {
					tu := make([]int64, a.Arity())
					for c := range tu {
						tu[c] = int64(1000*j + 10*i + c)
					}
					rel.AppendTuple(tu)
				}
				db.Add(rel)
			}
			newCluster := func() *Cluster {
				if tc.owned != nil {
					return NewClusterNet(*tc.owned, tc.p, 8)
				}
				return NewCluster(tc.p, 8)
			}
			want, got := newCluster(), newCluster()
			for _, c := range []*Cluster{want, got} {
				c.Seed(tc.servers-1, 0, []int64{-1, -1}) // same kind as the first deal: must coalesce
			}
			for j, a := range q.Atoms {
				rel := db.Get(a.Name)
				for i := 0; i < rel.NumTuples(); i++ {
					want.Seed(i%tc.servers, j, rel.Tuple(i))
				}
			}
			got.SeedPartitioned(tc.servers, q, db)
			for s := 0; s < tc.p; s++ {
				g, w := got.Inbox(s), want.Inbox(s)
				if !slices.Equal(g.arena, w.arena) || !slices.Equal(g.spans, w.spans) || g.tuples != w.tuples {
					t.Errorf("p=%d servers=%d owned=%v m=%d server %d: dealt %d values in spans %v, want %d in %v",
						tc.p, tc.servers, tc.owned, m, s, len(g.arena), g.spans, len(w.arena), w.spans)
				}
			}
			want.Release()
			got.Release()
		}
	}
}

// TestSeedRoundRobinMatchesSeed: dealing a flat relation with
// SeedRoundRobin leaves every inbox exactly as the per-tuple Seed loop
// does, including coalescing with what was seeded before and dealing over
// a prefix of the servers.
func TestSeedRoundRobinMatchesSeed(t *testing.T) {
	const p, servers = 5, 3
	for _, m := range []int{0, 1, 2, 3, 7, 12} {
		vals := make([]int64, 0, 2*m)
		for i := 0; i < m; i++ {
			vals = append(vals, int64(i), int64(100+i))
		}
		want, got := NewCluster(p, 8), NewCluster(p, 8)
		for _, c := range []*Cluster{want, got} {
			c.Seed(1, 4, []int64{-1, -1}) // same kind as the first deal: must coalesce
		}
		for kind := 4; kind <= 5; kind++ {
			for i := 0; i < m; i++ {
				want.Seed(i%servers, kind, vals[2*i:2*i+2])
			}
			got.SeedRoundRobin(servers, kind, 2, vals)
		}
		for s := 0; s < p; s++ {
			if g, w := got.Inbox(s), want.Inbox(s); inboxSnapshot(g) != inboxSnapshot(w) || g.NumBatches() != w.NumBatches() {
				t.Errorf("m=%d server %d: dealt %s in %d batches, want %s in %d", m, s,
					inboxSnapshot(g), g.NumBatches(), inboxSnapshot(w), w.NumBatches())
			}
		}
		want.Release()
		got.Release()
	}
	c := NewCluster(p, 8)
	defer c.Release()
	for _, bad := range []func(){
		func() { c.SeedRoundRobin(p+1, 0, 2, []int64{1, 2}) },
		func() { c.SeedRoundRobin(0, 0, 2, []int64{1, 2}) },
		func() { c.SeedRoundRobin(p, 0, 2, []int64{1, 2, 3}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("malformed SeedRoundRobin did not panic")
				}
			}()
			bad()
		}()
	}
}
