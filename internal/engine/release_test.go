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
	out += fmt.Sprintf("|L=%.0f T=%.0f", c.Record(nil, 0).MaxLoadBits(), c.Record(nil, 0).TotalBits())
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
	wantLoad, wantTotal, wantRounds := c.Record(nil, 0).MaxLoadBits(), c.Record(nil, 0).TotalBits(), len(c.Record(nil, 0).Rounds)
	c.Release()
	if c.Record(nil, 0).MaxLoadBits() != wantLoad || c.Record(nil, 0).TotalBits() != wantTotal || len(c.Record(nil, 0).Rounds) != wantRounds {
		t.Fatalf("stats changed across Release: load %v total %v rounds %v", c.Record(nil, 0).MaxLoadBits(), c.Record(nil, 0).TotalBits(), len(c.Record(nil, 0).Rounds))
	}
}
