package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
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

// runRanks runs f on every rank of a fresh n-rank loopback session group,
// the ranks concurrently, and fails the test if a rank cannot dial.
func runRanks(t *testing.T, n int, f func(s *Session)) {
	t.Helper()
	addrs, err := FreeLoopbackAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			s, err := Dial(r, addrs, nil)
			if err != nil {
				errs[r] = err
				return
			}
			defer s.Close()
			f(s)
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
}

// multicastRound runs one round in which every server replicates tuples
// through overlapping subcubes that share their first member, next to a
// kind fed both through a subcube and by unicast, and a broadcast of an
// annotation-width value, at the given chunk size. It calls inspect, when
// set, before the cluster is released, and renders every inbox — its
// batches and its kind views — and the round's accounting.
func multicastRound(tr engine.Transport, chunk int, inspect func()) string {
	const p, kinds = 6, 5
	c := engine.NewClusterNet(tr, p, 12)
	defer c.Release()
	c.SetStreamChunk(chunk)
	tables := [][]int{{0, 2, 1}, {0, 1}, {0, 3, 1, 2}}
	c.Round("multicast", func(s int, _ *engine.Inbox, em *engine.Emitter) {
		for i := 0; i < 12; i++ {
			tu := []int64{int64(s), int64(i), int64(100*s + i)}
			em.EmitFanout(0, tables[i%3], i%3, tu)
			switch i % 4 {
			case 0:
				em.EmitFanout(1, tables[1], 3, tu)
			case 2:
				em.EmitTuple((s+i)%p, 3, tu)
			}
		}
		em.EmitTuple(engine.Broadcast, 4, []int64{1<<40 + int64(s)})
	})
	if inspect != nil {
		inspect()
	}
	var b strings.Builder
	views := make([]engine.KindView, kinds)
	for s := 0; s < p; s++ {
		ib := c.Inbox(s)
		fmt.Fprintf(&b, "server %d:", s)
		ib.EachBatch(func(bt engine.Batch) { fmt.Fprintf(&b, " k%d a%d %v;", bt.Kind, bt.Arity, bt.Vals) })
		ib.KindViews(views)
		for k, v := range views {
			fmt.Fprintf(&b, " view %d ok=%t a%d %v;", k, v.OK, v.Arity, v.Vals)
		}
		b.WriteByte('\n')
	}
	rec := c.Record(nil, 0)
	fmt.Fprintf(&b, "totalbits=%x maxload=%x", rec.TotalBits(), rec.MaxLoadBits())
	return b.String()
}

// TestSessionMulticastMatchesLocalDelivery: over two ranks, a round of
// overlapping multicasts lands exactly as DeliverLocal lands it in process
// — every inbox's batches and kind views, and the accounting — whether the
// records cross whole or cut into one-tuple frames.
func TestSessionMulticastMatchesLocalDelivery(t *testing.T) {
	want := multicastRound(nil, 0, nil)
	for _, chunk := range []int{0, 1} {
		got := make([]string, 2)
		runRanks(t, 2, func(s *Session) { got[s.Rank()] = multicastRound(s, chunk, nil) })
		for r := range got {
			if got[r] != want {
				t.Errorf("chunk %d, rank %d landed\n%s\nin process\n%s", chunk, r, got[r], want)
			}
		}
	}
}

// spyTransport attaches the session's links with the record cutter's frame
// body cap set to maxBody, and keeps them so a test can read the stream a
// link last serialized.
type spyTransport struct {
	s       *Session
	maxBody int
	links   []*tcpLink
}

func (sp *spyTransport) Attach(p, bitsPerValue int) (engine.Link, error) {
	l, err := sp.s.Attach(p, bitsPerValue)
	if err != nil {
		return nil, err
	}
	tl := l.(*tcpLink)
	tl.maxBody = sp.maxBody
	sp.links = append(sp.links, tl)
	return tl, nil
}

// recordTuples counts the tuples the items of one record frame carry.
func recordTuples(rec *recordFrame) int {
	tuples, body := 0, rec.Body
	next := func() int {
		v, n := binary.Uvarint(body)
		body = body[n:]
		return int(v)
	}
	for i := uint32(0); i < rec.Items; i++ {
		tag, width := body[0], int(body[1])
		body = body[2:]
		arity, count := next(), next()
		switch tag {
		case itemBatch:
			next()
			next()
		case itemGroup:
			next()
			next()
			for m := next(); m > 0; m-- {
				next()
			}
		case itemBcast:
			next()
		}
		body = body[count*arity*width:]
		tuples += count
	}
	return tuples
}

// checkCuts reports a record frame of stream that carries more than chunk
// tuples (chunk > 0), or more than one tuple in a body over maxBody bytes,
// and a stream in which no sender's record was cut at all.
func checkCuts(stream []byte, chunk, maxBody int) error {
	frames, senders := 0, map[uint32]bool{}
	for len(stream) > 0 {
		n := int(binary.LittleEndian.Uint32(stream))
		f, err := decodeFrame(stream[4 : 4+n])
		stream = stream[4+n:]
		if err != nil {
			return err
		}
		if f.typ != frameRecord {
			continue
		}
		frames++
		senders[f.rec.Sender] = true
		switch tuples := recordTuples(&f.rec); {
		case chunk > 0 && tuples > chunk:
			return fmt.Errorf("frame %d carries %d tuples, the chunk is %d", f.rec.Seq, tuples, chunk)
		case n > maxBody && tuples > 1:
			return fmt.Errorf("frame %d has a %d-byte body, over the %d-byte cap, and %d tuples", f.rec.Seq, n, maxBody, tuples)
		}
	}
	if frames <= len(senders) {
		return fmt.Errorf("%d frames for %d senders: no record was cut", frames, len(senders))
	}
	return nil
}

// TestSessionRecordCuts: the record cutter holds both of its limits, and
// cut records land bit-identically. Over two ranks, a round streamed in
// one-tuple chunks ships no frame of more than one tuple, and with a
// 96-byte frame cap — below every sender's record — records split into
// frames within the cap.
func TestSessionRecordCuts(t *testing.T) {
	want := multicastRound(nil, 0, nil)
	for _, tc := range []struct {
		name           string
		chunk, maxBody int
	}{
		{"one-tuple chunks", 1, maxFrameLen},
		{"96-byte frames", 0, 96},
	} {
		got, errs := make([]string, 2), make([]error, 2)
		runRanks(t, 2, func(s *Session) {
			sp := &spyTransport{s: s, maxBody: tc.maxBody}
			got[s.Rank()] = multicastRound(sp, tc.chunk, func() {
				errs[s.Rank()] = checkCuts(sp.links[0].w.buf, tc.chunk, tc.maxBody)
			})
		})
		for r := range got {
			if errs[r] != nil {
				t.Errorf("%s, rank %d: %v", tc.name, r, errs[r])
			}
			if got[r] != want {
				t.Errorf("%s, rank %d landed\n%s\nin process\n%s", tc.name, r, got[r], want)
			}
		}
	}
}

// roundErr runs f and returns the error a round panicked with inside it.
func roundErr(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			var ok bool
			if err, ok = r.(error); !ok {
				err = fmt.Errorf("%v", r)
			}
		}
	}()
	f()
	return nil
}

// TestSessionRejectsHostileRecords: a peer that ships a well-formed record
// of a server another rank owns, or a record naming a server ≥ p, fails
// the receiving rank's round with a malformed-frame error. Its tuples never
// land, so no answer or bit count changes silently.
func TestSessionRejectsHostileRecords(t *testing.T) {
	one := []byte{7}
	for _, tc := range []struct {
		name   string
		record []byte
	}{
		// Of p = 2 servers, rank 0 owns server 0 and rank 1 server 1.
		{"another rank's server", rawRecord(0, rawItem(itemBatch, 1, []uint64{1, 1, 0, 1}, one))},
		{"destination ≥ p", rawRecord(1, rawItem(itemBatch, 1, []uint64{1, 1, 0, 2}, one))},
		{"member ≥ p", rawRecord(1, rawItem(itemGroup, 1, []uint64{1, 1, 0, 1, 2, 0, 1}, one))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addrs, err := FreeLoopbackAddrs(2)
			if err != nil {
				t.Fatal(err)
			}
			// Rank 1 is played by hand: it drains what rank 0 sends it, and
			// dials rank 0 to ship a valid hello, then the record as its
			// whole round.
			ln, err := net.Listen("tcp", addrs[1])
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() {
				for {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					go func() {
						_, _ = io.Copy(io.Discard, c)
						c.Close()
					}()
				}
			}()
			s, err := Dial(0, addrs, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			peer, err := net.Dial("tcp", addrs[0])
			if err != nil {
				t.Fatal(err)
			}
			defer peer.Close()
			stream := append(appendHello(nil, 1, 0), tc.record...)
			if _, err := peer.Write(appendRoundEnd(stream, 0, 0, 1)); err != nil {
				t.Fatal(err)
			}
			err = roundErr(func() {
				c := engine.NewClusterNet(s, 2, 8)
				defer c.Release()
				c.Round("hostile", func(sv int, _ *engine.Inbox, em *engine.Emitter) {
					em.EmitTuple(1-sv, 0, []int64{int64(sv)})
				})
			})
			if !errors.Is(err, errMalformed) {
				t.Fatalf("the hostile round returned %v, want a malformed-frame error", err)
			}
		})
	}
}
