package transport

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mpcquery/internal/engine"
)

// snapshotCluster renders everything a delivery influences — every
// server's inbox contents (kinds, arities, exact values, span structure)
// and every round's statistics — so two runs can be compared for
// bit-identity.
func snapshotCluster(c *engine.Cluster) string {
	var b strings.Builder
	for s := 0; s < c.P(); s++ {
		ib := c.Inbox(s)
		fmt.Fprintf(&b, "server %d: %d tuples, %d batches\n", s, ib.NumTuples(), ib.NumBatches())
		ib.EachBatch(func(bt engine.Batch) {
			fmt.Fprintf(&b, "  k%d a%d %v\n", bt.Kind, bt.Arity, bt.Vals)
		})
	}
	for i, rs := range c.Record(nil, 0).Rounds {
		fmt.Fprintf(&b, "round %d %q: max=%x total=%x mt=%d tt=%d abort=%t\n",
			i, rs.Name, rs.MaxRecvBits, rs.TotalRecvBits, rs.MaxRecvTuples, rs.TotalRecvTuples, rs.Aborted)
	}
	fmt.Fprintf(&b, "totalbits=%x maxload=%x", c.Record(nil, 0).TotalBits(), c.Record(nil, 0).MaxLoadBits())
	return b.String()
}

// exerciseCluster drives a small but representative engine program:
// unicast shuffles, a broadcast round, an empty round (barrier only), and
// a round carrying annotation-width and negative values that force the
// codec's width-widening path.
func exerciseCluster(tr engine.Transport) (string, float64) {
	const p, bpv = 5, 16
	c := engine.NewClusterNet(tr, p, bpv)
	defer c.Release()
	for s := 0; s < p; s++ {
		c.Seed(s, 0, []int64{int64(s), int64(s * 10)})
		c.SeedBatch(s, 1, 1, []int64{int64(100 + s), int64(200 + s)})
	}
	c.Round("shuffle", func(s int, in *engine.Inbox, em *engine.Emitter) {
		in.Each(func(kind int, tu []int64) {
			if kind == 0 {
				em.EmitTuple((int(tu[0])+1)%p, 0, tu)
			} else {
				em.EmitBatch((s+2)%p, 1, 1, tu)
			}
		})
		if s == 0 {
			em.EmitTuple(engine.Broadcast, 2, []int64{999, 42})
		}
	})
	c.Round("wide-values", func(s int, in *engine.Inbox, em *engine.Emitter) {
		// Annotation-style values: far above the 16-bit domain, and
		// negative — the wire must widen, never truncate.
		em.EmitTuple((s+1)%p, 3, []int64{int64(s), 1 << 40, -int64(s) - 1})
	})
	c.Round("empty", func(s int, in *engine.Inbox, em *engine.Emitter) {})
	c.Round("fanin", func(s int, in *engine.Inbox, em *engine.Emitter) {
		in.Each(func(kind int, tu []int64) {
			if kind == 3 {
				em.EmitTuple(0, 4, tu)
			}
		})
	})
	return snapshotCluster(c), c.Record(nil, 0).TotalBits()
}

// TestSessionMatchesLocalDelivery is the transport's core contract at the
// engine level: the same program through 3 TCP-loopback ranks produces,
// at every rank, inboxes and statistics bit-identical to the in-process
// run — and the ranks' summed charged bits equal the engine's TotalBits.
func TestSessionMatchesLocalDelivery(t *testing.T) {
	wantSnap, wantBits := exerciseCluster(nil)

	inprocSnap, inprocBits := exerciseCluster(Inproc())
	if inprocSnap != wantSnap || inprocBits != wantBits {
		t.Fatalf("Inproc transport diverged from nil transport:\n%s\nvs\n%s", inprocSnap, wantSnap)
	}

	const ranks = 3
	addrs, err := FreeLoopbackAddrs(ranks)
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([]string, ranks)
	bits := make([]float64, ranks)
	charged := make([]int64, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s, err := Dial(r, addrs, nil)
			if err != nil {
				errs[r] = err
				return
			}
			defer s.Close()
			snaps[r], bits[r] = exerciseCluster(s)
			charged[r] = s.Stats().ChargedBits()
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	var chargedSum int64
	for r := 0; r < ranks; r++ {
		if snaps[r] != wantSnap {
			t.Errorf("rank %d diverged from local delivery:\n%s\nvs\n%s", r, snaps[r], wantSnap)
		}
		if bits[r] != wantBits {
			t.Errorf("rank %d TotalBits = %v, want %v", r, bits[r], wantBits)
		}
		chargedSum += charged[r]
	}
	if float64(chargedSum) != wantBits {
		t.Errorf("summed wire-charged bits = %d, want TotalBits %v", chargedSum, wantBits)
	}
}

// TestSessionSingleRank runs the degenerate 1-rank session: every
// delivery still crosses a real loopback socket.
func TestSessionSingleRank(t *testing.T) {
	addrs, err := FreeLoopbackAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Dial(0, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wantSnap, wantBits := exerciseCluster(nil)
	snap, bits := exerciseCluster(s)
	if snap != wantSnap || bits != wantBits {
		t.Fatalf("single-rank session diverged:\n%s\nvs\n%s", snap, wantSnap)
	}
	st := s.Stats()
	if float64(st.ChargedBits()) != wantBits {
		t.Errorf("charged bits %d, want %v", st.ChargedBits(), wantBits)
	}
	if st.WireBytes == 0 || st.DataFrames == 0 {
		t.Errorf("no wire traffic recorded: %+v", st)
	}
	// Wire-accounting inequality: the model's bits never exceed the
	// billed payload bits (values are byte-padded, never truncated).
	if st.ChargedBits() > st.BilledPayloadBytes*8 {
		t.Errorf("charged %d bits > billed payload %d bits", st.ChargedBits(), st.BilledPayloadBytes*8)
	}
}

// TestRoundTimeout exercises the barrier failure path: a rank whose peer
// never delivers its round fails with ErrPeerUnavailable (surfaced as an
// engine panic wrapping the error), rather than hanging.
func TestRoundTimeout(t *testing.T) {
	addrs, err := FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{RoundTimeout: 300 * time.Millisecond}
	var wg sync.WaitGroup
	var s0, s1 *Session
	var e0, e1 error
	wg.Add(2)
	go func() { defer wg.Done(); s0, e0 = Dial(0, addrs, opts) }()
	go func() { defer wg.Done(); s1, e1 = Dial(1, addrs, opts) }()
	wg.Wait()
	if e0 != nil || e1 != nil {
		t.Fatalf("dial: %v / %v", e0, e1)
	}
	defer s0.Close()
	defer s1.Close()

	// Rank 1 attaches and rounds; rank 0 never does — rank 1 must time
	// out with the typed error.
	err = func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				var ok bool
				if err, ok = r.(error); !ok {
					err = fmt.Errorf("%v", r)
				}
			}
		}()
		c := engine.NewClusterNet(s1, 4, 8)
		defer c.Release()
		c.Seed(0, 0, []int64{1})
		c.Round("stranded", func(s int, in *engine.Inbox, em *engine.Emitter) {
			em.EmitTuple((s+1)%4, 0, []int64{int64(s)})
		})
		return nil
	}()
	if !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("stranded round returned %v, want ErrPeerUnavailable", err)
	}
}

// TestDialUnreachable pins the dial-side retry budget: a peer that never
// listens yields ErrPeerUnavailable after bounded attempts.
func TestDialUnreachable(t *testing.T) {
	addrs, err := FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1's address is reserved but nobody listens on it.
	opts := &Options{DialAttempts: 3, DialBackoff: 10 * time.Millisecond}
	_, err = Dial(0, addrs, opts)
	if !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("dial to dead peer returned %v, want ErrPeerUnavailable", err)
	}
}

// TestAttachAfterClose verifies the session refuses new clusters once
// closed.
func TestAttachAfterClose(t *testing.T) {
	addrs, err := FreeLoopbackAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Dial(0, addrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Attach(4, 8); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("attach after close returned %v, want ErrSessionClosed", err)
	}
}

// TestOwnedRange checks the block partition covers [0,p) exactly, in
// order, for every rank count.
func TestOwnedRange(t *testing.T) {
	for _, p := range []int{1, 2, 5, 16, 64, 97} {
		for _, n := range []int{1, 2, 3, 4, 7} {
			prev := 0
			for r := 0; r < n; r++ {
				lo, hi := ownedRange(r, n, p)
				if lo != prev || hi < lo {
					t.Fatalf("p=%d n=%d rank %d: range [%d,%d) does not continue from %d", p, n, r, lo, hi, prev)
				}
				prev = hi
			}
			if prev != p {
				t.Fatalf("p=%d n=%d: partition covers [0,%d), want [0,%d)", p, n, prev, p)
			}
		}
	}
}
