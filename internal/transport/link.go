package transport

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"sync"
	"time"

	"mpcquery/internal/engine"
	"mpcquery/internal/obs"
)

// tcpLink delivers the rounds of one cluster over the session.
type tcpLink struct {
	s       *Session
	id      uint32
	p, bpv  int
	lo, hi  int     // the servers this rank owns
	owner   []int32 // the rank owning each server
	maxBody int     // frame body cap the record cutter works to

	// Send side, reused across rounds: one record writer per rank (the
	// stream shipped to that peer; this rank's own writer serializes its
	// gathers) from a set drawn from writerPool, the ranks a subcube batch
	// goes to, and the declared counts of the round-end.
	writers *[]recordWriter
	w       []recordWriter
	to      []bool
	sent    []uint64 // per server: values, tuples
	decl    []uint32

	// Receive side, reused across rounds: every remote sender's frames of
	// the round, the emitters those senders are restaged on (a set drawn
	// from recvPool at the first round), the staging a round is landed
	// from, one replayer per decoding worker, and every sender's replay
	// error.
	frames    [][]*recordFrame
	recv      *[]*engine.Emitter
	landed    []*engine.Emitter
	replayers []replayer
	errs      []error
}

func newTCPLink(s *Session, id uint32, p, bpv int) *tcpLink {
	l := &tcpLink{
		s: s, id: id, p: p, bpv: bpv, maxBody: maxFrameLen,
		owner: make([]int32, p), writers: writerPool.Get().(*[]recordWriter), to: make([]bool, s.n),
		sent: make([]uint64, 2*p), decl: make([]uint32, 2*p),
	}
	for len(*l.writers) < s.n {
		*l.writers = append(*l.writers, recordWriter{})
	}
	l.w = (*l.writers)[:s.n]
	l.lo, l.hi = ownedRange(s.rank, s.n, p)
	for r := 0; r < s.n; r++ {
		lo, hi := ownedRange(r, s.n, p)
		for sv := lo; sv < hi; sv++ {
			l.owner[sv] = int32(r)
		}
	}
	return l
}

// recvPool recycles the receive-side emitter sets of released links, so a
// link restages its rounds on staging buffers an earlier link grew, as the
// engine's emitter pool does for senders; writerPool does the same for the
// record writers' streams.
var (
	recvPool   = sync.Pool{New: func() any { return new([]*engine.Emitter) }}
	writerPool = sync.Pool{New: func() any { return new([]recordWriter) }}
)

// Owned implements engine.PartialLink: this rank's block of the servers.
func (l *tcpLink) Owned(p int) (lo, hi int) { return ownedRange(l.s.rank, l.s.n, p) }

func (l *tcpLink) Close() error {
	s := l.s
	s.mu.Lock()
	maps.DeleteFunc(s.rounds, func(k roundKey, _ *roundState) bool { return k.cluster == l.id })
	// Late frames for a released cluster (a slow peer's resend tail) must
	// not re-materialize its state; retire the identity until a rewound
	// replay legitimately reuses it. Ids only grow, so the set keeps only
	// the ids released ahead of an older cluster still attached.
	s.retired[l.id] = true
	for s.retired[s.released] {
		delete(s.retired, s.released)
		s.released++
	}
	s.mu.Unlock()
	if l.recv != nil {
		recvPool.Put(l.recv)
		l.recv = nil
	}
	if l.writers != nil {
		writerPool.Put(l.writers)
		l.writers, l.w = nil, nil
	}
	l.landed = nil
	return nil
}

// Deliver implements one round of the SPMD protocol: serialize each owned
// sender's staging into one record per peer — an item only for the peers
// owning one of its destinations, a multicast batch once per such peer —
// and ship each peer its stream, closed by a round-end declaring what this
// rank's senders sent every destination; wait for the other ranks'
// streams; restage every remote sender from the records received, and land
// the owned inboxes from those and the owned senders' own emitters with
// engine.DeliverLocal. A TCP inbox thus has the arena layout, spans and
// kind views of an in-process one. The declared counts fill the accounting
// of the destinations other ranks own, and must match what landed in the
// owned ones; with more than two ranks, each rank then confirms what landed
// in its servers to every peer (confirmRound).
func (l *tcpLink) Deliver(io *engine.DeliveryRound) error {
	s := l.s
	if err := s.Err(); err != nil {
		return err
	}
	round := uint32(io.Round)
	step := obs.KV{Key: "round", Value: fmt.Sprint(round)}
	fi, epoch := s.injectorAndEpoch()
	var faults int64
	if fi != nil {
		delay, crash := fi.DeliverFault(s.rank, epoch, l.id, round)
		if delay > 0 {
			s.countFault(&faults)
			io.Trace.Instant("fault_straggler", obs.KV{Key: "cluster", Value: fmt.Sprint(l.id)}, step,
				obs.KV{Key: "delay_ns", Value: fmt.Sprint(int64(delay))})
			time.Sleep(delay)
		}
		if crash != nil {
			s.countFault(&faults)
			io.Trace.Instant("fault_crash", obs.KV{Key: "cluster", Value: fmt.Sprint(l.id)}, step)
			return fmt.Errorf("%w: rank %d: cluster %d round %d: injected crash: %w",
				ErrPeerUnavailable, s.rank, l.id, round, crash)
		}
	}
	if err := l.serialize(io); err != nil {
		return err
	}
	if _, err := l.send(fi, epoch, faults, io.Trace, round, step, func(r int) []byte { return l.w[r].buf }); err != nil {
		return err
	}
	byRank, counts, err := l.collect(io.Ctx, round, step)
	if err == nil {
		err = l.land(io, byRank, counts)
	}
	if errors.Is(err, errMalformed) {
		s.setFatal(err)
	}
	return err
}

// describe names one exchange of the link in errors.
func (l *tcpLink) describe(step obs.KV) string {
	return fmt.Sprintf("cluster %d %s %s", l.id, step.Key, step.Value)
}

// send writes every peer its frame stream of one exchange of the link — a
// round, the owners' confirmation of one or a gather, named by step and
// numbered round on the wire — through writeFrames, with the session's
// fault injector fi at epoch, and returns the bytes written; stream(r) is
// peer r's stream. When the injector applied faults, the faults already
// counted included, a faults_injected instant on tr names the exchange.
func (l *tcpLink) send(fi FaultInjector, epoch int, faults int64, tr *obs.Trace, round uint32, step obs.KV, stream func(r int) []byte) (int64, error) {
	s, desc := l.s, l.describe(step)
	var sent int64
	for r := 0; r < s.n; r++ {
		if r == s.rank {
			continue
		}
		buf := stream(r)
		if err := s.writeFrames(r, buf, desc, fi, epoch, l.id, round, &faults); err != nil {
			return sent, err
		}
		sent += int64(len(buf))
	}
	if faults > 0 {
		tr.Instant("faults_injected", obs.KV{Key: "cluster", Value: fmt.Sprint(l.id)}, step,
			obs.KV{Key: "count", Value: fmt.Sprint(faults)})
	}
	return sent, nil
}

// collect waits for every other rank's frames of one exchange of the link
// (Session.await), then claims them, and the ranks' round-end counts, for
// assembly. A rank's counts that do not name the link's p servers are
// malformed.
func (l *tcpLink) collect(ctx context.Context, round uint32, step obs.KV) ([][]recordFrame, [][]byte, error) {
	s, what := l.s, l.describe(step)
	s.mu.Lock()
	defer s.mu.Unlock()
	rd := s.roundLocked(l.id, round)
	if err := s.await(ctx, what, s.opts.RoundTimeout, true, func(r int) bool { return r != s.rank && rd.pending(r) }); err != nil {
		return nil, nil, err
	}
	rd.assembled = true
	byRank, counts := rd.byRank, rd.counts
	rd.byRank, rd.counts = nil, nil
	for r := range counts {
		if r == s.rank {
			continue
		}
		if err := l.checkCounts(r, counts[r], what); err != nil {
			return nil, nil, err
		}
	}
	return byRank, counts, nil
}

// serialize writes every peer's stream of the round: each owned sender's
// items that peer needs, in WalkStaged order, cut into frames at the frame
// body cap, and the round-end. It meters the streams and charges the
// round's model bits, once per item whoever it is shipped to. Each sender
// is restaged from its own records, so receivers do not depend on the order
// senders are written in.
func (l *tcpLink) serialize(io *engine.DeliveryRound) error {
	s := l.s
	round := uint32(io.Round)
	for r := range l.w {
		l.w[r].begin(l.id, round, l.maxBody)
	}
	sent := l.sent
	clear(sent)
	var bcVals, bcTuples uint64
	var tally [numCounters]int64 // the round's wire counts
	for sv := l.lo; sv < l.hi; sv++ {
		io.Senders[sv].WalkStaged(func(it engine.Staged) {
			width := widthFor(l.bpv, it.Vals)
			pb := int64(len(it.Vals)) * int64(width)
			cb := int64(len(it.Vals)) * int64(l.bpv)
			vals, tuples := uint64(len(it.Vals)), uint64(len(it.Vals)/it.Arity)
			ship := func(r, payload int) {
				if r != s.rank {
					l.w[r].add(uint32(sv), &it, width)
					tally[payload] += pb
				}
			}
			switch {
			case it.Offsets != nil:
				// Billed and charged to every member; shipped once to
				// every rank owning one.
				tally[cBilledPayloadBytes] += pb * int64(len(it.Offsets))
				tally[cUnicastChargedBits] += cb * int64(len(it.Offsets))
				for _, off := range it.Offsets {
					d := it.Base + off
					sent[2*d] += vals
					sent[2*d+1] += tuples
					l.to[l.owner[d]] = true
				}
				for r, to := range l.to {
					if to {
						l.to[r] = false
						ship(r, cUnicastPayloadBytes)
					}
				}
			case it.Dest == engine.Broadcast:
				tally[cBilledPayloadBytes] += pb * int64(io.P)
				tally[cBroadcastChargedBits] += cb * int64(io.P)
				bcVals += vals
				bcTuples += tuples
				for r := range l.w {
					ship(r, cBroadcastPayloadBytes)
				}
			default:
				tally[cBilledPayloadBytes] += pb
				tally[cUnicastChargedBits] += cb
				sent[2*it.Dest] += vals
				sent[2*it.Dest+1] += tuples
				ship(int(l.owner[it.Dest]), cUnicastPayloadBytes)
			}
		})
		for r := range l.w {
			l.w[r].close()
		}
	}
	for d := 0; d < io.P; d++ {
		sent[2*d] += bcVals
		sent[2*d+1] += bcTuples
	}
	if err := l.declare(sent); err != nil {
		return fmt.Errorf("rank %d: cluster %d round %d: %w", s.rank, l.id, round, err)
	}
	for r := range l.w {
		if r == s.rank {
			continue
		}
		w := &l.w[r]
		w.buf = appendRoundEnd(w.buf, l.id, round, w.frames, l.decl)
		tally[cDataFrames] += int64(w.frames)
		tally[cHeaderBytes] += w.headers
	}
	tally[cCtrlFrames] = int64(s.n - 1)
	tally[cPayloadBytes] = tally[cUnicastPayloadBytes] + tally[cBroadcastPayloadBytes]
	for k, v := range tally {
		s.ctr.add(k, v)
	}
	return nil
}

// declare fills the round-end's counts from per-server (values, tuples)
// totals, which must fit its u32 fields.
func (l *tcpLink) declare(totals []uint64) error {
	for i, v := range totals {
		if v > math.MaxUint32 {
			return fmt.Errorf("server %d: %d values or tuples overflow the round-end's 32-bit counts", i/2, v)
		}
		l.decl[i] = uint32(v)
	}
	return nil
}

// checkCounts rejects a rank's round-end of the exchange what whose count
// vector does not name the link's p servers.
func (l *tcpLink) checkCounts(r int, counts []byte, what string) error {
	if len(counts) != 8*l.p {
		return fmt.Errorf("%w: %s: rank %d declared counts for %d servers, want %d",
			errMalformed, what, r, len(counts)/8, l.p)
	}
	return nil
}

// land restages every remote sender from its records and lands the owned
// inboxes from those and the owned senders' emitters, leaving io.Senders
// naming that staging. Then it meters the round from the declared counts:
// the ranks' sum is what each destination received; an owned destination
// must have landed exactly that, and the others are charged it — in a
// group of more than two ranks, once their owners have confirmed it. A
// count that disagrees is malformed.
func (l *tcpLink) land(io *engine.DeliveryRound, byRank [][]recordFrame, counts [][]byte) error {
	s := l.s
	if err := l.restage(byRank, io.P); err != nil {
		return err
	}
	// The owned senders land from their own emitters, the others from the
	// receive-side ones.
	l.landed = append(l.landed[:0], (*l.recv)[:io.P]...)
	copy(l.landed[l.lo:l.hi], io.Senders[l.lo:l.hi])
	io.Senders = l.landed
	engine.DeliverLocal(io)
	var bad error
	for d := 0; d < io.P; d++ {
		values, tuples := int(l.decl[2*d]), int(l.decl[2*d+1])
		for r := range counts {
			if r != s.rank {
				v, t := roundEndCount(counts[r], d)
				values += v
				tuples += t
			}
		}
		bits := float64(values * l.bpv)
		if d < l.lo || d >= l.hi {
			io.RecvBits[d], io.RecvTuples[d] = bits, tuples
		} else if (io.RecvBits[d] != bits || io.RecvTuples[d] != tuples) && bad == nil {
			bad = fmt.Errorf("%w: cluster %d round %d: the ranks declared %d values and %d tuples for server %d, %v bits and %d tuples landed",
				errMalformed, l.id, io.Round, values, tuples, d, io.RecvBits[d], io.RecvTuples[d])
		}
	}
	if s.n <= 2 {
		// A rank charges the peer's servers what it sent them itself and
		// what the peer declared for its own senders: the owner's word.
		return bad
	}
	// A third rank's declaration for another rank's server is checked by
	// that server's owner alone: every owner confirms what landed, its
	// own mismatch included, before any rank keeps its counts.
	return l.confirm(io, bad)
}

// confirm ships every peer a round-end of the round's confirm exchange
// counting what landed in each owned server. Then, unless this rank's own
// servers failed their check (bad), it waits for the peers' confirmations
// and fails the round when an owner landed other counts in a server than
// this rank charged.
func (l *tcpLink) confirm(io *engine.DeliveryRound, bad error) error {
	s := l.s
	round, step := confirmRound(uint32(io.Round)), obs.KV{Key: "confirmation", Value: fmt.Sprint(io.Round)}
	landed := l.sent
	clear(landed)
	for d := l.lo; d < l.hi; d++ {
		landed[2*d], landed[2*d+1] = uint64(io.RecvBits[d])/uint64(l.bpv), uint64(io.RecvTuples[d])
	}
	if err := l.declare(landed); err != nil {
		return fmt.Errorf("rank %d: cluster %d round %d: %w", s.rank, l.id, io.Round, err)
	}
	w := &l.w[s.rank]
	w.buf = appendRoundEnd(w.buf[:0], l.id, round, 0, l.decl)
	fi, epoch := s.injectorAndEpoch()
	_, err := l.send(fi, epoch, 0, io.Trace, round, step, func(int) []byte { return w.buf })
	if err == nil {
		s.ctr.add(cCtrlFrames, int64(s.n-1))
	}
	if err != nil || bad != nil {
		return cmp.Or(bad, err)
	}
	byRank, counts, err := l.collect(io.Ctx, round, step)
	if err != nil {
		return err
	}
	for r := range counts {
		if r == s.rank {
			continue
		}
		if len(byRank[r]) > 0 {
			return fmt.Errorf("%w: cluster %d round %d: rank %d sent record frames in a confirmation", errMalformed, l.id, io.Round, r)
		}
		lo, hi := ownedRange(r, s.n, io.P)
		for d := lo; d < hi; d++ {
			values, tuples := roundEndCount(counts[r], d)
			if float64(values*l.bpv) != io.RecvBits[d] || tuples != io.RecvTuples[d] {
				return fmt.Errorf("%w: cluster %d round %d: rank %d landed %d values and %d tuples in server %d, the ranks declared %v bits and %d tuples",
					errMalformed, l.id, io.Round, r, values, tuples, d, io.RecvBits[d], io.RecvTuples[d])
			}
		}
	}
	return nil
}

// restage replays every remote sender's record frames on its receive-side
// emitter, senders in parallel: a sender's frames all come from its owning
// rank, in seq order. A rank may only send the records of the servers it
// owns — a frame of any other server is malformed — and an item the replay
// rejects is malformed too.
func (l *tcpLink) restage(byRank [][]recordFrame, p int) error {
	if l.recv == nil {
		l.recv = recvPool.Get().(*[]*engine.Emitter)
	}
	for len(*l.recv) < p {
		*l.recv = append(*l.recv, &engine.Emitter{})
	}
	if len(l.errs) < p {
		l.errs = append(l.errs, make([]error, p-len(l.errs))...)
	}
	if err := l.bySender(byRank, p); err != nil {
		return err
	}
	for len(l.replayers) < runtime.GOMAXPROCS(0) {
		l.replayers = append(l.replayers, replayer{})
	}
	recv, owned := *l.recv, l.hi-l.lo
	engine.ParallelForWorkers(p-owned, func(i, worker int) {
		sv := i
		if sv >= l.lo {
			sv += owned
		}
		rp, em := &l.replayers[worker], recv[sv]
		rp.start(p)
		em.Restage(p)
		l.errs[sv] = nil
		for _, f := range l.frames[sv] {
			if err := rp.record(f, em); err != nil {
				l.errs[sv] = fmt.Errorf("cluster %d round %d, record of server %d: %w", l.id, f.Round, sv, err)
				break
			}
		}
		clear(l.frames[sv])
	})
	for _, err := range l.errs[:p] {
		if err != nil {
			return err
		}
	}
	return nil
}

// bySender files the received record frames under their senders, checking
// that each rank sent records of its own servers only.
func (l *tcpLink) bySender(byRank [][]recordFrame, p int) error {
	if len(l.frames) < p {
		l.frames = append(l.frames, make([][]*recordFrame, p-len(l.frames))...)
	}
	for sv := range l.frames[:p] {
		l.frames[sv] = l.frames[sv][:0]
	}
	for r := range byRank {
		lo, hi := ownedRange(r, l.s.n, p)
		for i := range byRank[r] {
			f := &byRank[r][i]
			if sv := int(f.Sender); sv < lo || sv >= hi {
				return fmt.Errorf("%w: cluster %d round %d: rank %d sent a record of server %d, outside its servers [%d,%d)",
					errMalformed, l.id, f.Round, r, sv, lo, hi)
			}
			l.frames[f.Sender] = append(l.frames[f.Sender], f)
		}
	}
	return nil
}

// Gather implements engine.PartialLink: it ships the owned servers' output parts —
// each one item of its server's record, addressed to the server itself —
// to every peer, closed by a round-end declaring each part's size, and
// assembles the output from the parts it holds and those it receives. The
// output is allocated once, at the size the ranks declared, and every part
// is copied or decoded straight to its offset, in parallel pieces. A part
// that disagrees with its declared size, or that a rank sent for a server
// it does not own, is malformed.
func (l *tcpLink) Gather(g *engine.GatherRound) ([]int64, error) {
	s := l.s
	if err := s.Err(); err != nil {
		return nil, err
	}
	round, step := gatherRound(g.Seq), obs.KV{Key: "gather", Value: fmt.Sprint(g.Seq)}
	w := &l.w[s.rank]
	w.begin(l.id, round, l.maxBody)
	sizes := l.sent
	clear(sizes)
	for sv := l.lo; sv < l.hi; sv++ {
		part := g.Parts[sv]
		if len(part) == 0 {
			continue
		}
		w.add(uint32(sv), &engine.Staged{Dest: sv, Arity: g.Arity, Vals: part}, widthFor(g.BitsPerValue, part))
		w.close()
		sizes[2*sv], sizes[2*sv+1] = uint64(len(part)), uint64(len(part)/g.Arity)
	}
	if err := l.declare(sizes); err != nil {
		return nil, fmt.Errorf("rank %d: cluster %d gather %d: %w", s.rank, l.id, g.Seq, err)
	}
	w.buf = appendRoundEnd(w.buf, l.id, round, w.frames, l.decl)
	fi, epoch := s.injectorAndEpoch()
	sent, err := l.send(fi, epoch, 0, g.Trace, round, step, func(int) []byte { return w.buf })
	s.ctr.add(cGatherBytes, sent)
	if err != nil {
		return nil, err
	}
	byRank, counts, err := l.collect(g.Ctx, round, step)
	var out []int64
	if err == nil {
		out, err = l.assemble(g, byRank, counts)
	}
	if errors.Is(err, errMalformed) {
		s.setFatal(err)
	}
	return out, err
}

// gatherPiece is one run of output values to place: copied from src, or
// decoded from payload at width bytes per value.
type gatherPiece struct {
	dst     []int64
	src     []int64
	payload []byte
	width   int
}

// gatherPieceVals bounds the values of one piece, so one huge part is
// placed by as many workers as an even spread.
const gatherPieceVals = 1 << 16

// appendPiece appends pc to pieces, cut into pieces of at most
// gatherPieceVals values.
func appendPiece(pieces []gatherPiece, pc gatherPiece) []gatherPiece {
	for len(pc.dst) > gatherPieceVals {
		head := pc
		head.dst = pc.dst[:gatherPieceVals]
		if pc.src != nil {
			head.src, pc.src = pc.src[:gatherPieceVals], pc.src[gatherPieceVals:]
		} else {
			head.payload, pc.payload = pc.payload[:gatherPieceVals*pc.width], pc.payload[gatherPieceVals*pc.width:]
		}
		pieces = append(pieces, head)
		pc.dst = pc.dst[gatherPieceVals:]
	}
	return append(pieces, pc)
}

// assemble places every part of a gather at its offset in one output
// allocation.
func (l *tcpLink) assemble(g *engine.GatherRound, byRank [][]recordFrame, counts [][]byte) ([]int64, error) {
	s := l.s
	for r := range counts {
		for sv := 0; sv < g.P && r != s.rank; sv++ {
			if v, _ := roundEndCount(counts[r], sv); v != 0 && int(l.owner[sv]) != r {
				return nil, fmt.Errorf("%w: cluster %d gather %d: rank %d declared a part of server %d, which it does not own",
					errMalformed, l.id, g.Seq, r, sv)
			}
		}
	}
	if err := l.bySender(byRank, g.P); err != nil {
		return nil, err
	}
	start := make([]int, g.P+1) // part sv lands at out[start[sv]:start[sv+1]]
	for sv := 0; sv < g.P; sv++ {
		size := len(g.Parts[sv])
		if r := int(l.owner[sv]); r != s.rank {
			// Every value takes at least one byte of its part's frames, so
			// the declared size allocates no more than the bytes received.
			size, _ = roundEndCount(counts[r], sv)
			received := 0
			for _, f := range l.frames[sv] {
				received += len(f.Body)
			}
			if size > received {
				return nil, fmt.Errorf("%w: cluster %d gather %d: rank %d declared %d values for server %d in %d bytes",
					errMalformed, l.id, g.Seq, r, size, sv, received)
			}
		}
		start[sv+1] = start[sv] + size
	}
	out := make([]int64, start[g.P])
	var pieces []gatherPiece
	for sv := 0; sv < g.P; sv++ {
		dst := out[start[sv]:start[sv+1]]
		if sv >= l.lo && sv < l.hi {
			if len(dst) > 0 {
				pieces = appendPiece(pieces, gatherPiece{dst: dst, src: g.Parts[sv]})
			}
			continue
		}
		for _, f := range l.frames[sv] {
			var err error
			if dst, pieces, err = gatherPart(f, g.Arity, dst, pieces); err != nil {
				return nil, fmt.Errorf("cluster %d gather %d, part of server %d: %w", l.id, g.Seq, sv, err)
			}
		}
		clear(l.frames[sv])
		if len(dst) > 0 {
			return nil, fmt.Errorf("%w: cluster %d gather %d: server %d's part has %d values, its owner declared %d",
				errMalformed, l.id, g.Seq, sv, start[sv+1]-start[sv]-len(dst), start[sv+1]-start[sv])
		}
	}
	engine.ParallelFor(len(pieces), func(i int) {
		pc := &pieces[i]
		if pc.src != nil {
			copy(pc.dst, pc.src)
		} else {
			decodeValues(pc.dst, pc.payload, pc.width)
		}
	})
	return out, nil
}
