package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/obs"
)

// clusterView renders everything a delivery influences, as one process
// sees it: every owned server's inbox contents (kinds, arities, exact
// values, span structure, kind views), and the accounting of every round —
// its statistics and the bits and tuples every one of the p servers
// received — so two runs can be compared for bit-identity server by server.
type clusterView struct {
	servers []string // "" for a server another process owns
	acct    string
}

// newClusterView renders c, whose rounds the trace tr observed.
func newClusterView(c *engine.Cluster, tr *obs.Trace, render func(ib *engine.Inbox, b *strings.Builder)) clusterView {
	v := clusterView{servers: make([]string, c.P())}
	lo, hi := c.Owned()
	for s := 0; s < c.P(); s++ {
		ib := c.Inbox(s)
		switch {
		case s >= lo && s < hi:
			var b strings.Builder
			render(ib, &b)
			v.servers[s] = b.String()
		case ib.NumTuples() > 0 || ib.NumBatches() > 0:
			v.servers[s] = fmt.Sprintf("server %d, owned by another rank, holds %d tuples", s, ib.NumTuples())
		}
	}
	var b strings.Builder
	for i, rs := range c.Record(nil, 0).Rounds {
		fmt.Fprintf(&b, "round %d %q: max=%x total=%x mt=%d tt=%d abort=%t\n",
			i, rs.Name, rs.MaxRecvBits, rs.TotalRecvBits, rs.MaxRecvTuples, rs.TotalRecvTuples, rs.Aborted)
	}
	for i, ro := range c.Trace().Rounds() {
		fmt.Fprintf(&b, "round %d recv bits %v tuples %v\n", i, ro.RecvBits, ro.RecvTuples)
	}
	fmt.Fprintf(&b, "totalbits=%x maxload=%x", c.Record(nil, 0).TotalBits(), c.Record(nil, 0).MaxLoadBits())
	v.acct = b.String()
	return v
}

// diff reports how v, one rank's view, departs from want, the in-process
// view of every server: an owned inbox that differs, an inbox a rank holds
// for a server it does not own, or different accounting. It returns "" when
// they agree.
func (v clusterView) diff(want clusterView) string {
	var b strings.Builder
	for s, got := range v.servers {
		if got != "" && got != want.servers[s] {
			fmt.Fprintf(&b, "server %d landed\n%s\nin process\n%s\n", s, got, want.servers[s])
		}
	}
	if v.acct != want.acct {
		fmt.Fprintf(&b, "accounting\n%s\nin process\n%s\n", v.acct, want.acct)
	}
	return b.String()
}

// owned counts the servers a view renders.
func (v clusterView) owned() int {
	n := 0
	for _, s := range v.servers {
		if s != "" {
			n++
		}
	}
	return n
}

// renderBatches renders an inbox's batches in delivery order.
func renderBatches(ib *engine.Inbox, b *strings.Builder) {
	fmt.Fprintf(b, "%d tuples, %d batches\n", ib.NumTuples(), ib.NumBatches())
	ib.EachBatch(func(bt engine.Batch) {
		fmt.Fprintf(b, "  k%d a%d %v\n", bt.Kind, bt.Arity, bt.Vals)
	})
}

// tracedCluster creates a cluster over tr whose rounds a fresh trace
// observes.
func tracedCluster(tr engine.Transport, p, bpv int) (*engine.Cluster, *obs.Trace) {
	trace := obs.NewTrace()
	return engine.NewClusterEnv(engine.Env{Net: tr, Trace: trace}, p, bpv), trace
}

// exerciseCluster drives a small but representative engine program:
// unicast shuffles next to a multicast to every server, an empty round
// (barrier only), and a round carrying annotation-width and negative values
// that force the codec's width-widening path.
func exerciseCluster(tr engine.Transport) (clusterView, float64) {
	const p, bpv = 5, 16
	c, trace := tracedCluster(tr, p, bpv)
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
			em.EmitFanout(0, []int{0, 1, 2, 3, 4}, 2, []int64{999, 42})
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
	return newClusterView(c, trace, renderBatches), c.Record(nil, 0).TotalBits()
}

// TestSessionMatchesLocalDelivery is the transport's core contract at the
// engine level: the same program through 3 TCP-loopback ranks produces, at
// every rank, owned inboxes and statistics bit-identical to the in-process
// run, no inbox for a server another rank owns, and the receive accounting
// of all p servers — and the ranks' summed charged bits equal the engine's
// TotalBits.
func TestSessionMatchesLocalDelivery(t *testing.T) {
	wantSnap, wantBits := exerciseCluster(nil)

	const ranks = 3
	addrs, err := FreeLoopbackAddrs(ranks)
	if err != nil {
		t.Fatal(err)
	}
	snaps := make([]clusterView, ranks)
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
	owned := 0
	for r := 0; r < ranks; r++ {
		if d := snaps[r].diff(wantSnap); d != "" {
			t.Errorf("rank %d diverged from local delivery:\n%s", r, d)
		}
		owned += snaps[r].owned()
		if bits[r] != wantBits {
			t.Errorf("rank %d TotalBits = %v, want %v", r, bits[r], wantBits)
		}
		chargedSum += charged[r]
	}
	if float64(chargedSum) != wantBits {
		t.Errorf("summed wire-charged bits = %d, want TotalBits %v", chargedSum, wantBits)
	}
	if owned != len(wantSnap.servers) {
		t.Errorf("the ranks landed %d servers between them, want %d", owned, len(wantSnap.servers))
	}
}

// TestSessionSingleRank runs the degenerate 1-rank session: the one rank
// owns every server, so nothing crosses a socket but the handshake, and the
// run matches local delivery.
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
	if d := snap.diff(wantSnap); d != "" || snap.owned() != len(wantSnap.servers) || bits != wantBits {
		t.Fatalf("single-rank session diverged:\n%s", d)
	}
	st := s.Stats()
	if float64(st.ChargedBits()) != wantBits {
		t.Errorf("charged bits %d, want %v", st.ChargedBits(), wantBits)
	}
	if st.DataFrames != 0 || st.GatherBytes != 0 || st.WireBytes != int64(len(appendHello(nil, 0, 0))) {
		t.Errorf("a single rank put more than its handshake on the wire: %+v", st)
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

// TestBarrierOutcomes: over two loopback ranks that both announce, the
// outcome barrier returns true at both only when both announced success,
// and the ready barrier that follows each one completes — every cell of the
// outcome table, one barrier generation after another.
func TestBarrierOutcomes(t *testing.T) {
	cases := [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}}
	got, errs := make([][]bool, 2), make([]error, 2)
	runRanks(t, 2, func(s *Session) {
		r := s.Rank()
		for _, c := range cases {
			ok, err := s.ExchangeOutcome(c[r])
			if err == nil {
				err = s.ReadyBarrier()
			}
			if err != nil {
				errs[r] = err
				return
			}
			got[r] = append(got[r], ok)
		}
	})
	for r := range got {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		for i, c := range cases {
			if want := c[0] && c[1]; got[r][i] != want {
				t.Errorf("rank %d, announcements %v: outcome %t, want %t", r, c, got[r][i], want)
			}
		}
	}
}

// TestBarrierTimesOut: a barrier that one of two ranks never joins fails
// the other with ErrPeerUnavailable naming the pending rank, and only it,
// after twice the round timeout — for the outcome and the ready barrier.
func TestBarrierTimesOut(t *testing.T) {
	const timeout = 50 * time.Millisecond
	addrs, err := FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	opts := &Options{RoundTimeout: timeout}
	sessions, errs := make([]*Session, 2), make([]error, 2)
	var wg sync.WaitGroup
	for r := range sessions {
		wg.Add(1)
		go func() { defer wg.Done(); sessions[r], errs[r] = Dial(r, addrs, opts) }()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
		defer sessions[r].Close()
	}
	for name, barrier := range map[string]func(s *Session) error{
		"outcome": func(s *Session) error { _, err := s.ExchangeOutcome(true); return err },
		"ready":   func(s *Session) error { return s.ReadyBarrier() },
	} {
		start := time.Now()
		err := barrier(sessions[0])
		if elapsed := time.Since(start); elapsed < 2*timeout {
			t.Errorf("%s barrier failed after %v, before twice the %v round timeout", name, elapsed, timeout)
		}
		pending := fmt.Sprintf("pending peers: 1 (%s)", addrs[1])
		if !errors.Is(err, ErrPeerUnavailable) || !strings.HasSuffix(fmt.Sprint(err), pending) {
			t.Errorf("%s barrier returned %v, want ErrPeerUnavailable ending %q", name, err, pending)
		}
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

// TestReleasedClustersStayBounded: two ranks run 200 one-round clusters,
// each attached and released in turn. Afterwards the session remembers no
// released id one by one, a late round-end of a released cluster re-creates
// no round state, and a frame of a cluster not attached yet is still kept.
func TestReleasedClustersStayBounded(t *testing.T) {
	const clusters = 200
	runRanks(t, 2, func(s *Session) {
		for i := 0; i < clusters; i++ {
			c := engine.NewClusterNet(s, 4, 8)
			c.Seed(0, 0, []int64{int64(i)})
			c.Round("one", func(sv int, in *engine.Inbox, em *engine.Emitter) {
				em.EmitTuple((sv+1)%4, 0, []int64{int64(sv)})
			})
			c.Release()
		}
		s.mu.Lock()
		retired, released, epoch := len(s.retired), s.released, s.epoch
		s.mu.Unlock()
		if retired != 0 || released != clusters {
			t.Errorf("rank %d: %d retired ids kept, released below %d; want 0 and %d", s.Rank(), retired, released, clusters)
		}
		peer := 1 - s.Rank()
		for _, id := range []uint32{0, clusters - 1, clusters} {
			if err := s.ingest(peer, frame{typ: frameRoundEnd, cluster: id}, &epoch); err != nil {
				t.Errorf("rank %d: ingest of cluster %d: %v", s.Rank(), id, err)
			}
		}
		s.mu.Lock()
		_, first := s.rounds[roundKey{0, 0}]
		_, last := s.rounds[roundKey{clusters - 1, 0}]
		_, next := s.rounds[roundKey{clusters, 0}]
		s.mu.Unlock()
		if first || last || !next {
			t.Errorf("rank %d: round state after late frames: cluster 0 %t, %d %t, %d %t; want false, false, true",
				s.Rank(), first, clusters-1, last, clusters, next)
		}
	})
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

// runRanksTimeout bounds every exchange of a runRanks session, and a
// barrier at twice that: the tests' exchanges take milliseconds, so a rank
// that never arrives fails the test within 10 s rather than after the
// default RoundTimeout.
const runRanksTimeout = 5 * time.Second

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
			s, err := Dial(r, addrs, &Options{RoundTimeout: runRanksTimeout})
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
// kind fed both through a subcube and by unicast, and a multicast of an
// annotation-width value to every server, at the given chunk size. It calls
// inspect, when set, before the cluster is released, and renders every
// inbox — its batches and its kind views — and the round's accounting.
func multicastRound(tr engine.Transport, chunk int, inspect func()) clusterView {
	const p, kinds = 6, 5
	c, trace := tracedCluster(tr, p, 12)
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
		em.EmitFanout(0, []int{0, 1, 2, 3, 4, 5}, 4, []int64{1<<40 + int64(s)})
	})
	if inspect != nil {
		inspect()
	}
	views := make([]engine.KindView, kinds)
	return newClusterView(c, trace, func(ib *engine.Inbox, b *strings.Builder) {
		ib.EachBatch(func(bt engine.Batch) { fmt.Fprintf(b, " k%d a%d %v;", bt.Kind, bt.Arity, bt.Vals) })
		ib.KindViews(views)
		for k, v := range views {
			fmt.Fprintf(b, " view %d ok=%t a%d %v;", k, v.OK, v.Arity, v.Vals)
		}
	})
}

// TestSessionMulticastMatchesLocalDelivery: over two ranks, a round of
// overlapping multicasts lands exactly as DeliverLocal lands it in process
// — every owned inbox's batches and kind views, and the accounting of all p
// servers — in a barrier round and in a streamed one.
func TestSessionMulticastMatchesLocalDelivery(t *testing.T) {
	want := multicastRound(nil, 0, nil)
	for _, chunk := range []int{0, 1} {
		got := make([]clusterView, 2)
		runRanks(t, 2, func(s *Session) { got[s.Rank()] = multicastRound(s, chunk, nil) })
		for r := range got {
			if d := got[r].diff(want); d != "" || got[r].owned() != 3 {
				t.Errorf("chunk %d, rank %d (%d servers owned):\n%s", chunk, r, got[r].owned(), d)
			}
		}
	}
}

// wholeGridRound runs one round at p = 6 in which every server sends runs of
// tuples of interleaved kinds to every server: each tuple through one
// EmitFanout over a table of every server when fanout is set, else through
// one EmitTuple per server. It renders every owned inbox's tuples in
// delivery order and the round's accounting.
func wholeGridRound(tr engine.Transport, chunk int, fanout bool) clusterView {
	all := []int{0, 1, 2, 3, 4, 5}
	c, trace := tracedCluster(tr, len(all), 12)
	defer c.Release()
	c.SetStreamChunk(chunk)
	c.Round("whole-grid", func(s int, _ *engine.Inbox, em *engine.Emitter) {
		for i := 0; i < 10+s; i++ {
			kind := i / 2 % 3
			tu := []int64{int64(s), int64(i), int64(100*s + i)}[:2+kind%2]
			if fanout {
				em.EmitFanout(0, all, kind, tu)
				continue
			}
			for _, d := range all {
				em.EmitTuple(d, kind, tu)
			}
		}
	})
	return newClusterView(c, trace, func(ib *engine.Inbox, b *strings.Builder) {
		ib.Each(func(kind int, tu []int64) { fmt.Fprintf(b, " k%d %v;", kind, tu) })
	})
}

// TestWholeGridMulticastMatchesUnicasts: a multicast to every server — an
// EmitFanout over a table of all p — delivers what one EmitTuple per server
// delivers: every inbox the same tuples in the same order, and every server
// charged the same bits and tuples. It holds in a barrier round, pipelined
// at chunks 1 and 7, and over two ranks.
func TestWholeGridMulticastMatchesUnicasts(t *testing.T) {
	want := wholeGridRound(nil, 0, false)
	for _, chunk := range []int{0, 1, 7} {
		if d := wholeGridRound(nil, chunk, true).diff(want); d != "" {
			t.Errorf("chunk %d, in process:\n%s", chunk, d)
		}
		if d := wholeGridRound(nil, chunk, false).diff(want); d != "" {
			t.Errorf("chunk %d, one EmitTuple per server, in process:\n%s", chunk, d)
		}
	}
	got := make([]clusterView, 2)
	runRanks(t, 2, func(s *Session) { got[s.Rank()] = wholeGridRound(s, 0, true) })
	for r := range got {
		if d := got[r].diff(want); d != "" || got[r].owned() != 3 {
			t.Errorf("two ranks, rank %d (%d servers owned):\n%s", r, got[r].owned(), d)
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
		}
		body = body[count*arity*width:]
		tuples += count
	}
	return tuples
}

// checkCuts reports a record frame of stream that carries more than one
// tuple in a body over maxBody bytes, and a stream in which no sender's
// record was cut at all.
func checkCuts(stream []byte, maxBody int) error {
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
		if tuples := recordTuples(&f.rec); n > maxBody && tuples > 1 {
			return fmt.Errorf("frame %d has a %d-byte body, over the %d-byte cap, and %d tuples", f.rec.Seq, n, maxBody, tuples)
		}
	}
	if frames <= len(senders) {
		return fmt.Errorf("%d frames for %d senders: no record was cut", frames, len(senders))
	}
	return nil
}

// TestSessionRecordCuts: the record cutter holds its frame body cap, and
// cut records land bit-identically. Over two ranks, with a 48-byte frame
// cap — below a sender's record to the other rank — records split into
// frames within the cap.
func TestSessionRecordCuts(t *testing.T) {
	const maxBody = 48
	want := multicastRound(nil, 0, nil)
	got, errs := make([]clusterView, 2), make([]error, 2)
	runRanks(t, 2, func(s *Session) {
		sp := &spyTransport{s: s, maxBody: maxBody}
		got[s.Rank()] = multicastRound(sp, 0, func() {
			errs[s.Rank()] = checkCuts(sp.links[0].w[1-s.Rank()].buf, maxBody)
		})
	})
	for r := range got {
		if errs[r] != nil {
			t.Errorf("rank %d: %v", r, errs[r])
		}
		if d := got[r].diff(want); d != "" || got[r].owned() != 3 {
			t.Errorf("rank %d (%d servers owned):\n%s", r, got[r].owned(), d)
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

// hostileGroup plays rank 1 of a group of len(streams) ranks by hand
// against real ranks: it drains what they send it, and dials every other
// rank r to ship a valid hello, then streams[r]. Each real rank runs run
// on its session; hostileGroup returns the error each run failed with,
// indexed by rank.
func hostileGroup(t *testing.T, streams [][]byte, run func(s *Session)) []error {
	t.Helper()
	addrs, err := FreeLoopbackAddrs(len(streams))
	if err != nil {
		t.Fatal(err)
	}
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
	sessions := make([]*Session, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for r := range streams {
		if r == 1 {
			continue
		}
		wg.Add(1)
		go func() { defer wg.Done(); sessions[r], errs[r] = Dial(r, addrs, nil) }()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, s := range sessions {
		if s == nil {
			continue
		}
		defer s.Close()
		peer, err := net.Dial("tcp", addrs[r])
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		if _, err := peer.Write(append(appendHello(nil, 1, 0), streams[r]...)); err != nil {
			t.Fatal(err)
		}
	}
	for r, s := range sessions {
		if s == nil {
			continue
		}
		wg.Add(1)
		go func() { defer wg.Done(); errs[r] = roundErr(func() { run(s) }) }()
	}
	wg.Wait()
	return errs
}

// hostileRound plays rank 1 of a 2-rank group by hand against a real rank
// 0 (hostileGroup), shipping stream as its whole round. Rank 0 runs a
// round of p = 2 servers — it owns server 0, rank 1 server 1 — in which
// each server sends the other one tuple, and hostileRound returns the
// error that round failed with.
func hostileRound(t *testing.T, stream []byte) error {
	t.Helper()
	return hostileGroup(t, [][]byte{stream, nil}, func(s *Session) {
		c := engine.NewClusterNet(s, 2, 8)
		defer c.Release()
		c.Round("hostile", func(sv int, _ *engine.Inbox, em *engine.Emitter) {
			em.EmitTuple(1-sv, 0, []int64{int64(sv)})
		})
	})[0]
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
			err := hostileRound(t, appendRoundEnd(tc.record, 0, 0, 1, []uint32{1, 1, 0, 0}))
			if !errors.Is(err, errMalformed) {
				t.Fatalf("the hostile round returned %v, want a malformed-frame error", err)
			}
		})
	}
}

// TestSessionRejectsHostileRoundEnd: a peer whose round-end declares, for a
// server the receiving rank owns, other counts than its records landed
// there, or declares counts for another number of servers, fails the
// receiving rank's round with a malformed-frame error — the declared counts
// meter the servers other ranks own, so they must never go unchecked where
// they can be.
func TestSessionRejectsHostileRoundEnd(t *testing.T) {
	// Server 1's one tuple to server 0, as rank 1 would ship it.
	record := rawRecord(1, rawItem(itemBatch, 1, []uint64{1, 1, 0, 0}, []byte{1}))
	for _, tc := range []struct {
		name   string
		counts []uint32
	}{
		{"more values than landed", []uint32{2, 1, 0, 0}},
		{"fewer tuples than landed", []uint32{1, 0, 0, 0}},
		{"counts of three servers", []uint32{1, 1, 0, 0, 0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := hostileRound(t, appendRoundEnd(record, 0, 0, 1, tc.counts))
			if !errors.Is(err, errMalformed) {
				t.Fatalf("the hostile round-end returned %v, want a malformed-frame error", err)
			}
		})
	}
	// The honest round-end of the same record is accepted.
	if err := hostileRound(t, appendRoundEnd(record, 0, 0, 1, []uint32{1, 1, 0, 0})); err != nil {
		t.Fatalf("the honest round failed: %v", err)
	}
}

// TestSessionOwnersConfirmCounts: in a 3-rank group, where a rank charges
// another rank's server what a third rank declared for it, a declaration
// the owner did not land — sent to every rank or only to a bystander — or
// an owner's false confirmation of what it landed fails every rank whose
// counts it would change with a malformed-frame error, never with other
// RoundStats. Of p = 3 servers rank r owns server r, and each server sends
// the next one tuple; rank 1 is played by hand.
func TestSessionOwnersConfirmCounts(t *testing.T) {
	// Server 1's one tuple to server 2, as rank 1 ships it to rank 2.
	record := rawRecord(1, rawItem(itemBatch, 1, []uint64{1, 1, 0, 2}, []byte{1}))
	honest, inflated := []uint32{0, 0, 0, 0, 1, 1}, []uint32{0, 0, 0, 0, 2, 2}
	landed := []uint32{0, 0, 1, 1, 0, 0} // server 1 landed server 0's tuple
	stream := func(frames []byte, n uint32, decl, confirmed []uint32) []byte {
		b := appendRoundEnd(append([]byte(nil), frames...), 0, 0, n, decl)
		return appendRoundEnd(b, 0, confirmRound(0), 0, confirmed)
	}
	for _, tc := range []struct {
		name       string
		to0, to2   []byte
		bad0, bad2 bool
	}{
		{"honest", stream(nil, 0, honest, landed), stream(record, 1, honest, landed), false, false},
		{"inflated for a third rank's server", stream(nil, 0, inflated, landed), stream(record, 1, inflated, landed), true, true},
		{"inflated to the bystander only", stream(nil, 0, inflated, landed), stream(record, 1, honest, landed), true, false},
		{"a false confirmation", stream(nil, 0, honest, []uint32{0, 0, 3, 3, 0, 0}), stream(record, 1, honest, []uint32{0, 0, 3, 3, 0, 0}), true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			errs := hostileGroup(t, [][]byte{tc.to0, nil, tc.to2}, func(s *Session) {
				c := engine.NewClusterNet(s, 3, 8)
				defer c.Release()
				c.Round("hostile", func(sv int, _ *engine.Inbox, em *engine.Emitter) {
					em.EmitTuple((sv+1)%3, 0, []int64{int64(sv)})
				})
			})
			for r, bad := range map[int]bool{0: tc.bad0, 2: tc.bad2} {
				if bad && !errors.Is(errs[r], errMalformed) {
					t.Errorf("rank %d returned %v, want a malformed-frame error", r, errs[r])
				}
				if !bad && errs[r] != nil {
					t.Errorf("rank %d, whose counts are right, failed: %v", r, errs[r])
				}
			}
		})
	}
}

// TestSessionRejectsHostileGather: a gather round-end that declares a part
// of 2³²−1 values with no frames is malformed, and costs the receiving
// rank no allocation of its declared size.
func TestSessionRejectsHostileGather(t *testing.T) {
	stream := appendRoundEnd(nil, 0, gatherRound(0), 0, []uint32{0, 0, math.MaxUint32, 1})
	var before, after runtime.MemStats
	err := hostileGroup(t, [][]byte{stream, nil}, func(s *Session) {
		c := engine.NewClusterNet(s, 2, 8)
		defer c.Release()
		runtime.ReadMemStats(&before)
		defer runtime.ReadMemStats(&after)
		c.Gather("out", 1, make([]*data.Relation, 2))
	})[0]
	if !errors.Is(err, errMalformed) {
		t.Fatalf("the hostile gather returned %v, want a malformed-frame error", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
		t.Fatalf("a gather declaring 2³²−1 values allocated %d bytes", alloc)
	}
}

// stalledFrame is a length prefix declaring a 64 MiB frame followed by the
// first 10 bytes of its body: what a peer that declares a large frame and
// then stalls has sent.
func stalledFrame() []byte {
	return append(binary.LittleEndian.AppendUint32(nil, maxFrameLen), make([]byte, 10)...)
}

// TestReadFrameGrowsWithArrivals: a frame that declares 64 MiB and
// delivers 10 bytes costs its reader no more than one growth step, not the
// declared length.
func TestReadFrameGrowsWithArrivals(t *testing.T) {
	br := bufio.NewReaderSize(bytes.NewReader(stalledFrame()), 1<<16)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(br, maxFrameLen)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a truncated frame returned %v, want io.ErrUnexpectedEOF", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
		t.Fatalf("reading 10 bytes of a declared 64 MiB frame allocated %d bytes", alloc)
	}
}

// TestSessionSurvivesStalledFrames: a connection whose first frame declares
// 64 MiB is refused unread, one that sends a hello and then stalls in a 64
// MiB frame pins one growth step; either way the session keeps serving
// rounds, and Close returns.
func TestSessionSurvivesStalledFrames(t *testing.T) {
	want, _ := exerciseCluster(nil)
	addrs, err := FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	sessions := make([]*Session, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for r := range sessions {
		wg.Add(1)
		go func() { defer wg.Done(); sessions[r], errs[r] = Dial(r, addrs, nil) }()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for _, stream := range [][]byte{stalledFrame(), append(appendHello(nil, 1, 0), stalledFrame()...)} {
		c, err := net.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(stream); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]clusterView, 2)
	for r, s := range sessions {
		wg.Add(1)
		go func() { defer wg.Done(); got[r], _ = exerciseCluster(s) }()
	}
	wg.Wait()
	for r := range got {
		if d := got[r].diff(want); d != "" {
			t.Errorf("rank %d, next to stalled connections, diverged:\n%s", r, d)
		}
	}
	closed := make(chan struct{})
	go func() {
		for _, s := range sessions {
			s.Close()
		}
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return with stalled connections open")
	}
}
