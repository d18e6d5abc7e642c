package engine

import (
	"fmt"
	"testing"
)

// runEcho seeds p servers with tagged tuples, shifts every tuple one server
// to the right in a round, and returns a deterministic transcript of every
// inbox plus the round stats.
func runEcho(p, rounds int) string {
	c := NewCluster(p, 8)
	defer c.Release()
	for s := 0; s < p; s++ {
		c.Seed(s, 0, []int64{int64(s), int64(s * 10)})
	}
	for r := 0; r < rounds; r++ {
		c.Round(fmt.Sprintf("shift-%d", r), func(s int, inbox *Inbox, emit *Emitter) {
			inbox.Each(func(kind int, t []int64) {
				emit.EmitTuple((s+1)%p, kind, t)
			})
		})
	}
	out := ""
	for s := 0; s < p; s++ {
		c.Inbox(s).Each(func(kind int, t []int64) {
			out += fmt.Sprintf("s%d k%d %v;", s, kind, t)
		})
	}
	out += fmt.Sprintf("|L=%.0f T=%.0f", c.MaxLoadBits(), c.TotalBits())
	return out
}

// TestReleaseReuseIsClean runs many released clusters of varying sizes back
// to back and asserts each run is byte-identical to a reference taken before
// any arena ever entered the pool: recycled arenas must never leak stale
// tuples or stats into a later cluster.
func TestReleaseReuseIsClean(t *testing.T) {
	ref3 := runEcho(3, 2)
	ref5 := runEcho(5, 1)
	for i := 0; i < 10; i++ {
		if got := runEcho(3, 2); got != ref3 {
			t.Fatalf("iteration %d (p=3): transcript diverged after pooling:\n got %s\nwant %s", i, got, ref3)
		}
		if got := runEcho(5, 1); got != ref5 {
			t.Fatalf("iteration %d (p=5): transcript diverged after pooling:\n got %s\nwant %s", i, got, ref5)
		}
	}
}

// TestReleaseIdempotent ensures a double Release (e.g. a deferred call after
// an explicit one) is harmless.
func TestReleaseIdempotent(t *testing.T) {
	c := NewCluster(2, 4)
	c.Seed(0, 0, []int64{1})
	c.Round("noop", func(s int, inbox *Inbox, emit *Emitter) {})
	c.Release()
	c.Release()
}

// TestReleaseKeepsStats asserts the metered quantities survive Release —
// only inbox views are invalidated.
func TestReleaseKeepsStats(t *testing.T) {
	c := NewCluster(2, 4)
	c.Seed(0, 0, []int64{1, 2})
	c.Round("send", func(s int, inbox *Inbox, emit *Emitter) {
		inbox.Each(func(kind int, t []int64) { emit.EmitTuple(1, kind, t) })
	})
	wantLoad, wantTotal, wantRounds := c.MaxLoadBits(), c.TotalBits(), c.NumRounds()
	c.Release()
	if c.MaxLoadBits() != wantLoad || c.TotalBits() != wantTotal || c.NumRounds() != wantRounds {
		t.Fatalf("stats changed across Release: load %v total %v rounds %v", c.MaxLoadBits(), c.TotalBits(), c.NumRounds())
	}
}

// replayLink is the smallest Link that honours the delivery contract: it
// drains every sender's staged batches through EachPending, senders
// ascending, exactly as a network transport serialises them. Attaching it
// puts a cluster in staged mode.
type replayLink struct{}

func (replayLink) Deliver(io *DeliveryRound) error {
	for d := 0; d < io.P; d++ {
		io.RecvBits[d], io.RecvTuples[d] = 0, 0
	}
	for s := 0; s < io.P; s++ {
		io.Senders[s].EachPending(func(dest, kind, arity int, vals []int64) {
			lo, hi := dest, dest+1
			if dest == Broadcast {
				lo, hi = 0, io.P
			}
			for d := lo; d < hi; d++ {
				io.Inboxes[d].Append(kind, arity, vals)
				io.RecvBits[d] += float64(len(vals) * io.BitsPerValue)
				io.RecvTuples[d] += len(vals) / arity
			}
		})
	}
	return nil
}

func (replayLink) Close() error { return nil }

// deliveryMode is one of the engine's three delivery paths.
type deliveryMode int

const (
	barrier   deliveryMode = iota // materialise, then DeliverLocal
	pipelined                     // chunks flush into the inboxes mid-emission
	staged                        // chunk-capped batches handed to a Link
)

func (m deliveryMode) apply(c *Cluster) {
	if m != barrier {
		c.SetStreamChunk(3)
	}
	if m == staged {
		c.link = replayLink{}
	}
}

// unpooledCluster builds a cluster whose inboxes and emitters are all brand
// new — nothing drawn from inboxPool or emitterPool. It is never released,
// so it never feeds the pools either: the never-pooled reference.
func unpooledCluster(p, bitsPerValue int) *Cluster {
	c := &Cluster{
		p:            p,
		bitsPerValue: bitsPerValue,
		inbox:        make([]*Inbox, p),
		spare:        make([]*Inbox, p),
		emitters:     make([]*Emitter, p),
		recvBits:     make([]float64, p),
		recvTuples:   make([]int, p),
	}
	for s := 0; s < p; s++ {
		c.inbox[s], c.spare[s] = &Inbox{}, &Inbox{}
		c.emitters[s] = &Emitter{c: c, self: s}
	}
	return c
}

// TestPooledStagingIsClean is the pool-hygiene differential for recycled
// emitter staging: clusters of p = 64 → 7 → 100 run back to back, cycling
// through barrier, pipelined and staged delivery, each preceded by a
// cluster whose round function panics mid-emission and is released dirty.
// Every run's stats and inbox contents must equal those of a never-pooled
// cluster — staging recycled across sizes and modes leaks nothing.
func TestPooledStagingIsClean(t *testing.T) {
	const nRounds = 2
	sizes := []int{64, 7, 100}
	reused := 0
	for i := 0; i < 9; i++ {
		p, mode := sizes[i%3], deliveryMode((i+1+i/3)%3) // every (size, mode) pair once

		// A sparse round first — one sender, so every other recycled emitter
		// reaches delivery exactly as the pool handed it over — then the
		// scripted rounds from every server.
		run := func(c *Cluster) ([]RoundStats, []string) {
			sparse := c.Round("sparse", func(s int, _ *Inbox, emit *Emitter) {
				if s == p-1 {
					emit.EmitTuple(p-1, 0, []int64{1, 2})
					emit.EmitTuple(Broadcast, 1, []int64{3})
				}
			})
			stats, inboxes := runScripted(c, p, nRounds)
			return append(stats, sparse), inboxes
		}
		wantStats, wantInboxes := run(unpooledCluster(p, 10))

		// Poison the pools: a cluster of yet another size whose round
		// panics after its servers have staged output.
		func() {
			c := NewCluster(p/2+5, 10)
			defer c.Release()
			defer func() {
				if recover() == nil {
					t.Fatal("poison round did not panic")
				}
			}()
			((mode + 1) % 3).apply(c) // not the mode of the run that follows
			c.Round("poison", func(s int, _ *Inbox, emit *Emitter) {
				emit.EmitBatch(s/2, 1, 2, []int64{-1, -1, -2, -2, -3, -3, -4, -4})
				emit.EmitTuple(Broadcast, 2, []int64{-9})
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
		gotStats, gotInboxes := run(c)
		c.Release()
		for r := range wantStats {
			if gotStats[r] != wantStats[r] {
				t.Errorf("run %d (p=%d mode=%d) round %d stats = %+v, want %+v", i, p, mode, r, gotStats[r], wantStats[r])
			}
		}
		for s := range wantInboxes {
			if gotInboxes[s] != wantInboxes[s] {
				t.Fatalf("run %d (p=%d mode=%d) server %d inbox diverged from the unpooled reference\n got %s\nwant %s",
					i, p, mode, s, gotInboxes[s], wantInboxes[s])
			}
		}
	}
	if reused == 0 {
		t.Fatal("no run drew recycled emitters: the test did not exercise the pool")
	}
}
