package transport

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpcquery/internal/engine"
	"mpcquery/internal/obs"
)

// ErrPeerUnavailable is returned (wrapped, with rank, cluster/round and
// peer-address context) when a peer cannot be dialed or written within the
// session's retry budget, or when a round's frames do not arrive within
// the round timeout. The round fails loudly — bits are never silently
// dropped — and the run-level recovery supervisor (see Mark/Rewind and the
// barrier exchanges below) decides whether to replay.
var ErrPeerUnavailable = errors.New("transport: peer unavailable")

// ErrSessionClosed is returned by operations on a closed session.
var ErrSessionClosed = errors.New("transport: session closed")

// Injected-fault sentinels: a FaultInjector's drop/reset surfaces through
// the normal write-retry machinery as one of these, so chaos-test errors
// are distinguishable from genuine network failures in messages (never in
// control flow — both shapes retry and recover identically).
var (
	errInjectedReset = errors.New("injected connection reset")
	errInjectedDrop  = errors.New("injected torn write")
)

// Options tunes a TCP session's failure handling. The zero value means
// defaults.
type Options struct {
	// DialAttempts bounds connection attempts per peer (default 40).
	// Combined with DialBackoff this absorbs the startup race where
	// peers come up in arbitrary order.
	DialAttempts int
	// DialBackoff is the base backoff between dial attempts (default
	// 50ms), doubling per attempt up to 1s.
	DialBackoff time.Duration
	// WriteRetries bounds how many times a failed round write to one
	// peer is retried with a fresh connection and a full resend of the
	// round's frames (default 2). Receivers deduplicate resent frames by
	// sequence number, so a retry never double-delivers.
	WriteRetries int
	// RoundTimeout bounds how long Deliver waits for the other ranks'
	// frames of one round (default 60s) before failing with
	// ErrPeerUnavailable. It also caps how long a single socket write may
	// block (a wedged peer that stops reading cannot stall a round, or a
	// Service.Close drain, forever), and the recovery barriers wait up to
	// twice this long for slow peers to notice a failed attempt.
	RoundTimeout time.Duration
}

func (o *Options) withDefaults() Options {
	var v Options
	if o != nil {
		v = *o
	}
	if v.DialAttempts <= 0 {
		v.DialAttempts = 40
	}
	if v.DialBackoff <= 0 {
		v.DialBackoff = 50 * time.Millisecond
	}
	if v.WriteRetries < 0 {
		v.WriteRetries = 0
	} else if v.WriteRetries == 0 {
		v.WriteRetries = 2
	}
	if v.RoundTimeout <= 0 {
		v.RoundTimeout = 60 * time.Second
	}
	return v
}

// WireStats is a snapshot of everything a session has put on (and
// accounted against) the wire. All byte counters are for this session's
// sends only; summing the snapshots of all ranks covers the whole run.
//
// The accounting identity the tests assert: ChargedBits() — the model
// bits this rank's owned senders were charged — equals the engine's
// Report.TotalBits summed over ranks, exactly, for every strategy. And
// ChargedBits() ≤ BilledPayloadBytes×8 always (values are byte-padded,
// never truncated), with equality when bitsPerValue is a multiple of 8
// and no value outgrows its domain width.
//
// Recovery keeps the identity exact: when a failed attempt is rewound
// (Session.Rewind), the abandoned attempt's model accounting is backed out
// of the charged counters and reported separately under AbandonedBytes /
// AbandonedChargedBits — a replayed run bills each bit exactly once, no
// matter how many attempts it took. WireBytes stays monotone (those bytes
// really crossed the wire).
type WireStats struct {
	// DataFrames counts the record frames of rounds shipped to peers: at
	// most one per sender, round and peer that owns a destination of the
	// sender's staging, more where the frame body cap cut a record. A rank
	// never ships a frame to itself.
	DataFrames int64
	// CtrlFrames counts hello, round-end and recovery-barrier frames
	// actually sent.
	CtrlFrames int64

	// WireBytes is every byte handed to a socket, across all peers. Unlike
	// the model counters below it is never rewound: injected torn writes,
	// duplicates, resends and abandoned attempts all really happened. It
	// covers the round frames (PayloadBytes + HeaderBytes, plus round-ends
	// and control frames) and the output gathers (GatherBytes).
	WireBytes int64

	// PayloadBytes / HeaderBytes split the record frames of rounds shipped
	// to peers into value payload and framing overhead
	// (DataFrameOverheadBytes per frame plus every item's header).
	PayloadBytes int64
	HeaderBytes  int64

	// UnicastPayloadBytes and BroadcastPayloadBytes split PayloadBytes
	// by delivery mode; a batch to a subcube is unicast, shipped once to
	// every rank owning a member.
	UnicastPayloadBytes   int64
	BroadcastPayloadBytes int64

	// BilledPayloadBytes weights each batch's payload by its number of
	// model receivers: ×1 for a batch to one server, ×members for a batch
	// to a subcube, ×p for a broadcast (the model charges every receiver;
	// the wire ships at most one copy per rank). This is the wire-side
	// quantity TotalBits is compared to.
	BilledPayloadBytes int64

	// GatherBytes is every byte of the output gathers this rank shipped:
	// after a computation phase, the owned servers' output parts go to
	// every peer once, so each rank can return the whole output. A gather
	// is not a model round — none of it is charged or billed — and, like
	// WireBytes, it is never rewound.
	GatherBytes int64

	// UnicastChargedBits / BroadcastChargedBits are the model bits
	// charged for this rank's sends: count×arity×bitsPerValue per batch,
	// ×members per subcube batch, ×p per broadcast.
	UnicastChargedBits   int64
	BroadcastChargedBits int64

	// AbandonedBytes is the payload+header bytes of abandoned attempts:
	// serialized, possibly shipped, then backed out of the charged
	// counters by Rewind when the recovery supervisor replays a failed
	// run. AbandonedChargedBits is the model bits backed out the same
	// way. Neither ever appears in ChargedBits — retries never
	// double-bill.
	AbandonedBytes       int64
	AbandonedChargedBits int64

	// FaultsInjected counts faults the installed FaultInjector actually
	// applied (drops, duplicates, resets, delays, injected crashes).
	FaultsInjected int64

	// Redials counts failed connection attempts; Resends counts round
	// write retries after a connection failure.
	Redials int64
	Resends int64
}

// ChargedBits is the total model communication charged to this rank's
// owned senders.
func (w WireStats) ChargedBits() int64 { return w.UnicastChargedBits + w.BroadcastChargedBits }

// Wire counters: one per WireStats field, in field order, indexing a
// session's wireCounters.
const (
	cDataFrames = iota
	cCtrlFrames
	cWireBytes
	cPayloadBytes
	cHeaderBytes
	cUnicastPayloadBytes
	cBroadcastPayloadBytes
	cBilledPayloadBytes
	cGatherBytes
	cUnicastChargedBits
	cBroadcastChargedBits
	cAbandonedBytes
	cAbandonedChargedBits
	cFaultsInjected
	cRedials
	cResends
	numCounters
)

// wireCounters is a session's live WireStats, one counter per field.
type wireCounters [numCounters]atomic.Int64

// obsTotals pairs wire counters with process-wide totals in the obs
// registry, which add updates with them (nil: the counter has none).
// Sessions come and go (one per runtime); the registry aggregates across all
// of them for the /metrics endpoint, while Session.Stats() stays the
// per-rank snapshot the accounting identities are asserted on.
var obsTotals = [numCounters]*obs.Counter{
	cDataFrames:         obs.Default().Counter("mpc_transport_data_frames_total"),
	cCtrlFrames:         obs.Default().Counter("mpc_transport_ctrl_frames_total"),
	cWireBytes:          obs.Default().Counter("mpc_transport_wire_bytes_total"),
	cPayloadBytes:       obs.Default().Counter("mpc_transport_payload_bytes_total"),
	cBilledPayloadBytes: obs.Default().Counter("mpc_transport_billed_payload_bytes_total"),
	cAbandonedBytes:     obs.Default().Counter("mpc_transport_abandoned_bytes_total"),
	cGatherBytes:        obs.Default().Counter("mpc_transport_gather_bytes_total"),
	cFaultsInjected:     obs.Default().Counter("mpc_faults_injected_total"),
	cRedials:            obs.Default().Counter("mpc_transport_redials_total"),
	cResends:            obs.Default().Counter("mpc_transport_resends_total"),
}

// add counts v on counter k and on its process-wide total.
func (c *wireCounters) add(k int, v int64) {
	c[k].Add(v)
	obsTotals[k].Add(v)
}

// fields maps every wire counter to its WireStats field.
func (w *WireStats) fields() [numCounters]*int64 {
	return [numCounters]*int64{
		cDataFrames:            &w.DataFrames,
		cCtrlFrames:            &w.CtrlFrames,
		cWireBytes:             &w.WireBytes,
		cPayloadBytes:          &w.PayloadBytes,
		cHeaderBytes:           &w.HeaderBytes,
		cUnicastPayloadBytes:   &w.UnicastPayloadBytes,
		cBroadcastPayloadBytes: &w.BroadcastPayloadBytes,
		cBilledPayloadBytes:    &w.BilledPayloadBytes,
		cGatherBytes:           &w.GatherBytes,
		cUnicastChargedBits:    &w.UnicastChargedBits,
		cBroadcastChargedBits:  &w.BroadcastChargedBits,
		cAbandonedBytes:        &w.AbandonedBytes,
		cAbandonedChargedBits:  &w.AbandonedChargedBits,
		cFaultsInjected:        &w.FaultsInjected,
		cRedials:               &w.Redials,
		cResends:               &w.Resends,
	}
}

func (c *wireCounters) snapshot() (w WireStats) {
	for k, f := range w.fields() {
		*f = c[k].Load()
	}
	return w
}

// peerConn is the session's one outgoing connection to a peer. The mutex
// serializes round writes (a write is one conn.Write of a complete frame
// stream, so concurrent clusters interleave at frame granularity, never
// mid-frame).
type peerConn struct {
	mu   sync.Mutex
	conn net.Conn
}

// roundKey names one exchange on the wire: a cluster and a round number.
type roundKey struct{ cluster, round uint32 }

// roundState accumulates one (cluster, round)'s frames per source rank,
// in arrival order, until every other rank has declared (via round-end)
// and delivered its frame count. A round or gather exchange needs nothing
// from the receiving rank itself.
type roundState struct {
	byRank    [][]recordFrame
	ends      []int64  // -1 until the rank's round-end arrives
	counts    [][]byte // each rank's round-end counts
	assembled bool     // frames handed to Deliver; late duplicates are dropped
}

func newRoundState(n int) *roundState {
	rd := &roundState{byRank: make([][]recordFrame, n), ends: make([]int64, n), counts: make([][]byte, n)}
	for i := range rd.ends {
		rd.ends[i] = -1
	}
	return rd
}

// pending reports whether rank r's frames of the round are still missing.
func (rd *roundState) pending(r int) bool {
	return rd.ends[r] < 0 || int64(len(rd.byRank[r])) != rd.ends[r]
}

// ctrlState collects one recovery barrier's announcements, one per rank.
type ctrlState struct {
	got   []bool
	flags []uint32
}

func ctrlKey(kind, gen uint32) uint64 { return uint64(kind)<<32 | uint64(gen) }

// Session is one rank of a distributed run: a listener at addrs[rank], an
// outgoing connection to every rank, and the receive-side buffers that
// rounds are assembled from. Rounds and gathers travel only between
// distinct ranks — a rank lands its own servers' staging directly — while
// the recovery barriers below reach every rank, this one included, over its
// socket. A Session is an engine.Transport; attach it via
// engine.NewClusterNet (or the public WithRuntime option).
//
// All ranks must execute the same sequence of runs: cluster identities
// are assigned by Attach order, and round payloads are only exchanged,
// never negotiated. One session must not serve concurrent runs.
//
// # Recovery protocol
//
// A failed run attempt is replayed from round 0 — determinism makes the
// replay bit-identical, so nothing of the abandoned attempt needs to be
// salvaged; it needs to be *discarded coherently* at every rank. The
// supervisor (root run.go's WithRecovery loop) drives, in lockstep at
// every rank:
//
//	mark := s.Mark()                 // before the attempt
//	err  := attempt()                // the run itself
//	allOK, _ := s.ExchangeOutcome(err == nil)   // barrier 1: agree on the verdict
//	if allOK { done }
//	s.Rewind(mark)                   // discard receive state, back out accounting, epoch++
//	s.ReadyBarrier()                 // barrier 2: everyone has rewound
//	retry
//
// Stale frames of the abandoned attempt are filtered by *connection
// epoch*: every connection's hello carries the dialer's epoch, a
// ctrlReady advances it, and data/round-end frames whose connection epoch
// is behind the session's are dropped on ingest. Per-connection FIFO
// ordering plus the two barriers make the filter airtight: a rank only
// ships replay frames after every peer announced ready, which each peer
// announced only after rewinding, so replay frames always land in fresh
// state — and anything older is provably from a dead attempt.
type Session struct {
	rank  int
	n     int
	addrs []string
	opts  Options
	ln    net.Listener

	peers []peerConn

	mu          sync.Mutex
	cond        *sync.Cond
	rounds      map[roundKey]*roundState // received frames, by exchange
	released    uint32                   // every cluster id below it is released
	retired     map[uint32]bool          // released cluster ids at or above released
	ctrl        map[uint64]*ctrlState
	nextCluster uint32
	epoch       int    // attempt epoch: bumped by Rewind, filters stale frames
	gen         uint32 // barrier sequence: bumped per ExchangeOutcome/ReadyBarrier
	faults      FaultInjector
	conns       []net.Conn // accepted connections, closed with the session
	closed      bool
	fatal       error

	ctr wireCounters
	wg  sync.WaitGroup
}

// Dial starts rank's session of an n-rank run: it listens at addrs[rank],
// connects to every address in addrs (with bounded retry, absorbing
// arbitrary startup order), and serves incoming frames. addrs must be
// identical, in the same order, at every rank.
func Dial(rank int, addrs []string, opts *Options) (*Session, error) {
	n := len(addrs)
	if n < 1 {
		return nil, fmt.Errorf("transport: need at least one rank address")
	}
	if rank < 0 || rank >= n {
		return nil, fmt.Errorf("transport: rank %d out of range for %d addresses", rank, n)
	}
	ln, err := net.Listen("tcp", addrs[rank])
	if err != nil {
		return nil, fmt.Errorf("transport: rank %d listen %s: %w", rank, addrs[rank], err)
	}
	s := &Session{
		rank:    rank,
		n:       n,
		addrs:   append([]string(nil), addrs...),
		opts:    opts.withDefaults(),
		ln:      ln,
		peers:   make([]peerConn, n),
		rounds:  make(map[roundKey]*roundState),
		retired: make(map[uint32]bool),
		ctrl:    make(map[uint64]*ctrlState),
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(1)
	go s.acceptLoop()
	for r := 0; r < n; r++ {
		c, err := s.dialPeer(r)
		if err != nil {
			s.Close()
			return nil, err
		}
		pc := &s.peers[r]
		pc.mu.Lock()
		pc.conn = c
		pc.mu.Unlock()
	}
	return s, nil
}

// Rank returns this session's rank.
func (s *Session) Rank() int { return s.rank }

// Ranks returns the number of ranks in the run.
func (s *Session) Ranks() int { return s.n }

// Addr returns the session's actual listen address.
func (s *Session) Addr() string { return s.ln.Addr().String() }

// Stats returns a snapshot of the session's wire accounting.
func (s *Session) Stats() WireStats { return s.ctr.snapshot() }

// Err returns the session's fatal protocol error, if any.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fatal
}

// SetFaultInjector installs (or, with nil, removes) the session's fault
// injector. All ranks of a run must install the same schedule — the
// injector must be a pure function of its arguments, so that is a
// configuration requirement, not a synchronization one.
func (s *Session) SetFaultInjector(fi FaultInjector) {
	s.mu.Lock()
	s.faults = fi
	s.mu.Unlock()
}

func (s *Session) injectorAndEpoch() (FaultInjector, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults, s.epoch
}

func (s *Session) countFault(local *int64) {
	s.ctr.add(cFaultsInjected, 1)
	*local++
}

// Close shuts the session down: the listener and every connection are
// closed, in-flight Delivers fail with ErrSessionClosed, and reader
// goroutines are joined. Close is idempotent.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	conns := s.conns
	s.conns = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	for i := range s.peers {
		pc := &s.peers[i]
		pc.mu.Lock()
		if pc.conn != nil {
			pc.conn.Close()
			pc.conn = nil
		}
		pc.mu.Unlock()
	}
	s.wg.Wait()
	return nil
}

func (s *Session) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

func (s *Session) setFatal(err error) {
	s.mu.Lock()
	if s.fatal == nil {
		s.fatal = err
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Attach implements engine.Transport: it assigns the next cluster
// identity (creation order is the cross-rank agreement on identities) and
// returns the cluster's delivery link.
func (s *Session) Attach(p, bitsPerValue int) (engine.Link, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrSessionClosed
	}
	if s.fatal != nil {
		return nil, s.fatal
	}
	id := s.nextCluster
	s.nextCluster++
	return newTCPLink(s, id, p, bitsPerValue), nil
}

// ownedRange block-partitions the p model servers across the n ranks:
// rank owns servers [lo, hi) — it seeds them, runs their round functions
// and computation phases, ships their staging and lands their inboxes.
func ownedRange(rank, ranks, p int) (lo, hi int) {
	return rank * p / ranks, (rank + 1) * p / ranks
}

func backoffFor(attempt int, base time.Duration) time.Duration {
	shift := attempt - 1
	if shift > 5 {
		shift = 5
	}
	d := base << uint(shift)
	if d > time.Second {
		d = time.Second
	}
	return d
}

// dialPeer connects to rank r with the session's retry budget and sends
// the hello handshake (which pins the protocol version and carries the
// current attempt epoch). The error carries rank and peer address; write
// paths add cluster/round context on top.
func (s *Session) dialPeer(r int) (net.Conn, error) {
	s.mu.Lock()
	epoch := uint32(s.epoch)
	s.mu.Unlock()
	hello := appendHello(nil, uint32(s.rank), epoch)
	var lastErr error
	for attempt := 0; attempt < s.opts.DialAttempts; attempt++ {
		if attempt > 0 {
			s.ctr.add(cRedials, 1)
			time.Sleep(backoffFor(attempt, s.opts.DialBackoff))
		}
		if s.isClosed() {
			return nil, ErrSessionClosed
		}
		c, err := net.DialTimeout("tcp", s.addrs[r], time.Second)
		if err != nil {
			lastErr = err
			continue
		}
		if _, err := c.Write(hello); err != nil {
			c.Close()
			lastErr = err
			continue
		}
		s.ctr.add(cWireBytes, int64(len(hello)))
		s.ctr.add(cCtrlFrames, 1)
		return c, nil
	}
	return nil, fmt.Errorf("%w: rank %d dial %s: %v", ErrPeerUnavailable, s.rank, s.addrs[r], lastErr)
}

// ProbePeers health-checks every peer address with a short plain TCP
// connect (closed before the handshake, so the probe is invisible to the
// peer's protocol state). It classifies a failed round: if every peer
// still accepts connections the failure was transient and a replay is
// worth attempting; a refusing peer is reported as unavailable.
func (s *Session) ProbePeers() error {
	var firstErr error
	for r := 0; r < s.n; r++ {
		if s.isClosed() {
			return ErrSessionClosed
		}
		c, err := net.DialTimeout("tcp", s.addrs[r], 2*time.Second)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: rank %d: health probe of peer %d (%s) failed: %v",
					ErrPeerUnavailable, s.rank, r, s.addrs[r], err)
			}
			continue
		}
		c.Close()
	}
	return firstErr
}

func (s *Session) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns = append(s.conns, c)
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// frameGrowStep bounds how far readFrame grows a frame body ahead of the
// bytes that arrived: a length prefix alone never buys more memory.
const frameGrowStep = 1 << 20

// readFrame reads one length-prefixed frame of at most maxLen bytes and
// decodes it. The body grows as its bytes arrive, frameGrowStep at a time,
// so a peer that declares a large frame and stalls pins at most one step.
// The returned frame's payload aliases a per-frame buffer, safe to retain.
func readFrame(br *bufio.Reader, maxLen uint32) (frame, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return frame{}, err
	}
	n := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if n < 1 || n > int(maxLen) {
		return frame{}, fmt.Errorf("%w: frame length %d", errMalformed, n)
	}
	body := make([]byte, 0, min(n, frameGrowStep))
	for len(body) < n {
		k := len(body)
		step := min(n-k, frameGrowStep)
		body = slices.Grow(body, step)[:k+step]
		if _, err := io.ReadFull(br, body[k:]); err != nil {
			return frame{}, err
		}
	}
	return decodeFrame(body)
}

func (s *Session) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer c.Close()
	br := bufio.NewReaderSize(c, 1<<16)
	// The first frame must be a hello: a longer one is refused unread.
	f, err := readFrame(br, helloFrameLen)
	if err != nil || f.typ != frameHello || int(f.rank) >= s.n {
		// Not a valid peer handshake (or a health probe): drop the
		// connection without poisoning the session — a stray connect must
		// not kill a run.
		return
	}
	peer := int(f.rank)
	// The connection's epoch: the dialer's attempt epoch at dial time,
	// advanced by each ctrlReady it ships. Only this goroutine touches it
	// (ingest runs on it), so no locking beyond the session mutex inside
	// ingest is needed.
	connEpoch := int(f.epoch)
	for {
		f, err := readFrame(br, maxFrameLen)
		if err != nil {
			// Connection closed or broken mid-stream. Not fatal: the
			// peer redials and resends on its side; sequence numbers
			// dedupe whatever prefix of the round already arrived.
			if errors.Is(err, errMalformed) {
				s.setFatal(fmt.Errorf("transport: rank %d sent a malformed frame: %v", peer, err))
			}
			return
		}
		if err := s.ingest(peer, f, &connEpoch); err != nil {
			s.setFatal(err)
			return
		}
	}
}

// roundLocked returns (lazily creating) the buffer for one (cluster,
// round). Frames may arrive before the local Attach of their cluster —
// state is keyed purely by the wire identities.
func (s *Session) roundLocked(cluster, round uint32) *roundState {
	k := roundKey{cluster, round}
	rd, ok := s.rounds[k]
	if !ok {
		rd = newRoundState(s.n)
		s.rounds[k] = rd
	}
	return rd
}

func (s *Session) ctrlLocked(kind, gen uint32) *ctrlState {
	k := ctrlKey(kind, gen)
	st, ok := s.ctrl[k]
	if !ok {
		st = &ctrlState{got: make([]bool, s.n), flags: make([]uint32, s.n)}
		s.ctrl[k] = st
	}
	return st
}

func (s *Session) ingest(peer int, f frame, connEpoch *int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch f.typ {
	case frameCtrl:
		if f.ckind == ctrlReady {
			// The peer has rewound for a replay: everything that follows
			// on this connection belongs to its new attempt epoch
			// (carried in flags).
			*connEpoch = int(f.flags)
		}
		st := s.ctrlLocked(f.ckind, f.gen)
		if !st.got[peer] {
			st.got[peer] = true
			st.flags[peer] = f.flags
			s.cond.Broadcast()
		}
	case frameRecord, frameRoundEnd:
		if *connEpoch < s.epoch || f.cluster < s.released || s.retired[f.cluster] {
			return nil // stale frame of an abandoned attempt or closed cluster
		}
		rd := s.roundLocked(f.cluster, f.round)
		if rd.assembled {
			return nil // duplicate after completion (resend overlap)
		}
		if f.typ == frameRoundEnd {
			if rd.ends[peer] >= 0 {
				if rd.ends[peer] != int64(f.frames) || !bytes.Equal(rd.counts[peer], f.counts) {
					return fmt.Errorf("transport: rank %d: conflicting round-end for cluster %d round %d: %d vs %d frames",
						peer, f.cluster, f.round, rd.ends[peer], f.frames)
				}
				return nil
			}
			rd.ends[peer] = int64(f.frames)
			rd.counts[peer] = f.counts
			s.cond.Broadcast()
			return nil
		}
		seq, have := int64(f.rec.Seq), int64(len(rd.byRank[peer]))
		if seq < have {
			return nil // duplicate prefix of a resend
		}
		if seq > have {
			return fmt.Errorf("transport: rank %d: frame gap in cluster %d round %d: seq %d, want %d",
				peer, f.rec.Cluster, f.rec.Round, seq, have)
		}
		rd.byRank[peer] = append(rd.byRank[peer], f.rec)
		if rd.ends[peer] >= 0 && int64(len(rd.byRank[peer])) == rd.ends[peer] {
			s.cond.Broadcast()
		}
	case frameHello:
		return fmt.Errorf("transport: rank %d: unexpected mid-stream hello", peer)
	}
	return nil
}

// writeFrames ships buf (one complete frame stream) to rank r, retrying
// with a fresh connection (and a full resend — receivers dedupe by
// sequence number) up to WriteRetries times. Every write is bounded by a
// RoundTimeout write deadline, so a peer that stops reading fails the
// round instead of wedging it. desc names the stream for error context
// ("cluster C round R" or a barrier name) — surfaced errors always carry
// (rank, what, peer, addr).
//
// When a FaultInjector is installed (fi non-nil), it is consulted before
// each attempt and may tear, duplicate, delay or reset the write; the
// injected failure then flows through the exact retry/dedup machinery a
// real one would.
func (s *Session) writeFrames(r int, buf []byte, desc string, fi FaultInjector, epoch int, cluster, round uint32, faults *int64) error {
	pc := &s.peers[r]
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var lastErr error
	for attempt := 0; attempt <= s.opts.WriteRetries; attempt++ {
		if attempt > 0 {
			s.ctr.add(cResends, 1)
			time.Sleep(backoffFor(attempt, s.opts.DialBackoff))
		}
		if s.isClosed() {
			return ErrSessionClosed
		}
		if pc.conn == nil {
			c, err := s.dialPeer(r)
			if err != nil {
				lastErr = err
				continue
			}
			pc.conn = c
		}
		out := buf
		if fi != nil {
			act, delay := fi.WriteFault(s.rank, r, epoch, cluster, round, attempt)
			if delay > 0 {
				s.countFault(faults)
				time.Sleep(delay)
			}
			switch act {
			case FaultReset:
				s.countFault(faults)
				pc.conn.Close()
				pc.conn = nil
				lastErr = errInjectedReset
				continue
			case FaultDrop:
				s.countFault(faults)
				torn := buf[:len(buf)/2]
				pc.conn.SetWriteDeadline(time.Now().Add(s.opts.RoundTimeout))
				n, _ := pc.conn.Write(torn)
				s.ctr.add(cWireBytes, int64(n))
				pc.conn.Close()
				pc.conn = nil
				lastErr = errInjectedDrop
				continue
			case FaultDup:
				s.countFault(faults)
				dup := make([]byte, 0, 2*len(buf))
				dup = append(dup, buf...)
				out = append(dup, buf...)
			}
		}
		pc.conn.SetWriteDeadline(time.Now().Add(s.opts.RoundTimeout))
		_, err := pc.conn.Write(out)
		if err == nil {
			s.ctr.add(cWireBytes, int64(len(out)))
			return nil
		}
		lastErr = err
		pc.conn.Close()
		pc.conn = nil
	}
	return fmt.Errorf("%w: rank %d: %s write to peer %d (%s): %v",
		ErrPeerUnavailable, s.rank, desc, r, s.addrs[r], lastErr)
}

// await waits, holding s.mu, until no rank is pending in one exchange —
// a round, a gather or a barrier, named by what in errors. It wakes on every
// arrival, on ctx's cancellation and at the deadline, timeout from now, and
// fails with the session's fatal error, ErrSessionClosed, ctx's error, or,
// at the deadline, ErrPeerUnavailable naming the pending peers: an exchange
// never resolves silently short, and a wedged one cannot outlive its
// request. An abortable exchange (a round) also fails as soon as any rank
// announces a failed attempt over the outcome barrier, instead of sitting
// out its timeout.
func (s *Session) await(ctx context.Context, what string, timeout time.Duration, abortable bool, pending func(r int) bool) error {
	wake := func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	deadline := time.Now().Add(timeout)
	defer time.AfterFunc(timeout, wake).Stop()
	if ctx != nil {
		defer context.AfterFunc(ctx, wake)()
	}
	for {
		switch {
		case s.fatal != nil:
			return s.fatal
		case s.closed:
			return ErrSessionClosed
		case ctx != nil && ctx.Err() != nil:
			return fmt.Errorf("transport: rank %d: %s: %w", s.rank, what, ctx.Err())
		}
		// The outcome barrier this attempt will join is generation gen+1.
		if st := s.ctrl[ctrlKey(ctrlOutcome, s.gen+1)]; abortable && st != nil {
			for r := range st.got {
				if st.got[r] && st.flags[r]&ctrlOK == 0 {
					return fmt.Errorf("%w: rank %d: %s aborted: peer %d (%s) announced a failed attempt",
						ErrPeerUnavailable, s.rank, what, r, s.addrs[r])
				}
			}
		}
		done := true
		for r := 0; r < s.n && done; r++ {
			done = !pending(r)
		}
		if done {
			return nil
		}
		if !time.Now().Before(deadline) {
			var late []string
			for r := 0; r < s.n; r++ {
				if pending(r) {
					late = append(late, fmt.Sprintf("%d (%s)", r, s.addrs[r]))
				}
			}
			return fmt.Errorf("%w: rank %d: %s incomplete after %v, pending peers: %s",
				ErrPeerUnavailable, s.rank, what, timeout, strings.Join(late, ", "))
		}
		s.cond.Wait()
	}
}

// RunMark snapshots the session state a recovery supervisor needs to
// rewind a failed attempt: the next cluster identity (attempts re-assign
// the same ids) and the wire accounting baseline the abandoned attempt's
// charges are backed out against.
type RunMark struct {
	cluster uint32
	base    WireStats
}

// Mark snapshots the rewind point for one run attempt. Call before the
// attempt; pass to Rewind if it fails.
func (s *Session) Mark() RunMark {
	s.mu.Lock()
	c := s.nextCluster
	s.mu.Unlock()
	return RunMark{cluster: c, base: s.ctr.snapshot()}
}

// ExchangeOutcome runs the post-attempt barrier: every rank announces
// whether its attempt succeeded and waits for every other rank's
// announcement. It returns whether ALL ranks succeeded — only then is the
// run's result final (a rank that failed locally has not assembled its
// answer; a rank that succeeded while a peer failed must discard and
// replay, which determinism makes free).
func (s *Session) ExchangeOutcome(ok bool) (bool, error) {
	var flags uint32
	if ok {
		flags = ctrlOK
	}
	all, err := s.barrier(ctrlOutcome, flags)
	return all&ctrlOK != 0, err
}

// barrierNames names the barrier kinds in errors.
var barrierNames = [...]string{ctrlOutcome: "outcome", ctrlReady: "ready"}

// barrier runs one recovery barrier: it opens the session's next barrier
// generation, announces flags under kind to every rank, this one included,
// and waits for every rank's announcement — up to twice the round timeout,
// as a slow peer must first time out of its own round before it can join.
// It returns the AND of the ranks' flags.
func (s *Session) barrier(kind, flags uint32) (uint32, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrSessionClosed
	}
	s.gen++
	gen := s.gen
	s.mu.Unlock()
	what := fmt.Sprintf("%s barrier gen %d", barrierNames[kind], gen)
	buf := appendCtrl(nil, kind, gen, flags)
	for r := 0; r < s.n; r++ {
		s.ctr.add(cCtrlFrames, 1)
		if err := s.writeFrames(r, buf, what, nil, 0, 0, 0, nil); err != nil {
			return 0, err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.ctrlLocked(kind, gen)
	if err := s.await(nil, what, 2*s.opts.RoundTimeout, false, func(r int) bool { return !st.got[r] }); err != nil {
		return 0, err
	}
	all := ^uint32(0)
	for _, f := range st.flags {
		all &= f
	}
	return all, nil
}

// rewound lists the counters of an attempt's model accounting: Rewind backs
// them out of a failed attempt, and the process-wide totals keep them.
var rewound = [...]int{
	cDataFrames, cPayloadBytes, cHeaderBytes, cUnicastPayloadBytes,
	cBroadcastPayloadBytes, cBilledPayloadBytes, cUnicastChargedBits, cBroadcastChargedBits,
}

// Rewind discards the failed attempt at this rank: all receive state at
// or above the mark's cluster is deleted (replays re-create the same
// cluster identities from fresh state), the attempt epoch advances (so
// stale frames of the abandoned attempt are dropped on ingest), and the
// abandoned attempt's model accounting is backed out of the charged
// counters into AbandonedBytes / AbandonedChargedBits. Wire-truth
// counters (WireBytes, CtrlFrames, Redials, Resends) are left alone.
//
// After Rewind, ReadyBarrier must complete before the replay ships
// anything — it is what tells every peer to expect the new epoch.
func (s *Session) Rewind(m RunMark) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrSessionClosed
	}
	if s.fatal != nil {
		err := s.fatal
		s.mu.Unlock()
		return err
	}
	maps.DeleteFunc(s.rounds, func(k roundKey, _ *roundState) bool { return k.cluster >= m.cluster })
	maps.DeleteFunc(s.retired, func(id uint32, _ bool) bool { return id >= m.cluster })
	s.released = min(s.released, m.cluster)
	s.nextCluster = m.cluster
	s.epoch++
	// Old barriers can never complete again; keep a small window for
	// stragglers' duplicate announcements, drop the rest.
	maps.DeleteFunc(s.ctrl, func(k uint64, _ *ctrlState) bool { return uint32(k)+16 < s.gen })
	s.mu.Unlock()

	base := m.base.fields()
	var back [numCounters]int64
	for _, k := range rewound {
		back[k] = s.ctr[k].Load() - *base[k]
		s.ctr[k].Add(-back[k])
	}
	s.ctr.add(cAbandonedBytes, back[cPayloadBytes]+back[cHeaderBytes])
	s.ctr.add(cAbandonedChargedBits, back[cUnicastChargedBits]+back[cBroadcastChargedBits])
	return nil
}

// ReadyBarrier announces this rank has rewound for a replay (the ctrlReady
// carries the new attempt epoch, advancing every receiving connection's
// epoch) and waits until every rank has announced the same. When it
// returns, every peer is guaranteed to have discarded the abandoned
// attempt — the replay's frames will land in fresh state.
func (s *Session) ReadyBarrier() error {
	_, epoch := s.injectorAndEpoch()
	_, err := s.barrier(ctrlReady, uint32(epoch))
	return err
}
