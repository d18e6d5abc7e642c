// Package transport moves the engine's rounds between servers over TCP.
// It implements the engine's delivery seam (engine.Transport) with
// sessions (Dial): N real OS processes (or N goroutines over real loopback
// sockets) executing the same strategy in SPMD style, with every bit a
// server receives from another rank serialized through the wire codec
// below. Without a transport the engine delivers in process
// (engine.DeliverLocal).
//
// The distributed protocol is owner-computes: every rank plans the whole
// run, but the p model servers of a cluster are block-partitioned over the
// ranks (ownedRange), and a rank seeds, evaluates and lands only the
// servers it owns. Each round, a rank serializes its senders' staging — one
// record per (server, round) and peer — and ships a peer only the items
// with a destination that peer owns: a batch to its destination's owner, a
// subcube batch to every rank owning a member, a broadcast to every rank.
// Its own senders' staging it lands directly. A receiving rank restages
// each remote sender from the records it received and lands the round
// through engine.DeliverLocal, so the wire is load-bearing for correctness
// — a dropped or corrupted frame changes the answer, it does not just skew
// a counter. Every round-end frame declares what the sending rank's senders
// sent each of the p destinations, so every rank meters the whole round,
// and identical RoundStats, at every rank. A destination's owner checks the
// declared sum against what landed; with more than two ranks it also
// confirms what landed to every peer, which checks it against what it
// charged, so no rank's counts can differ from the owner's unnoticed. After a computation phase the
// ranks all-gather the owned servers' output parts once (PartialLink.Gather), so
// every rank produces the identical Report.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"mpcquery/internal/engine"
)

// Frame types. Every frame on the wire is a little-endian u32 length
// prefix (length of everything after itself) followed by a type byte and
// a type-specific body.
const (
	frameHello    byte = 1 // body: magic u32, version u32, rank u32, epoch u32
	frameRecord   byte = 2 // body: cluster u32, round u32, seq u32, sender u32, items u32, then the items
	frameRoundEnd byte = 3 // body: cluster u32, round u32, frames u32, then per server values u32, tuples u32
	frameCtrl     byte = 4 // body: kind u32, gen u32, flags u32
)

// helloFrameLen is the length prefix of a hello frame, the first frame of
// every connection: a type byte and four u32 fields.
const helloFrameLen = 1 + 16

// gatherRound numbers the exchange of a cluster's gather seq apart from its
// rounds: an output gather travels as record frames and a round-end, as a
// round does, each part of server s an item of s's record addressed to s.
func gatherRound(seq int) uint32 { return 1<<31 | uint32(seq) }

// confirmRound numbers the exchange that closes round r of a cluster in a
// group of more than two ranks: every rank sends every peer a round-end
// with no frames counting what landed in the servers it owns, so each rank
// checks the counts it charged another rank's servers against their owner.
func confirmRound(r uint32) uint32 { return 1<<30 | r }

// Control-frame kinds (frameCtrl). They carry the recovery supervisor's
// cross-rank barriers: after every attempt each rank announces its outcome
// (ctrlOutcome, flags bit 0 = succeeded), and before a replay each rank
// announces it has rewound its receive state (ctrlReady). A ctrlReady also
// advances the connection's epoch — every record/round-end frame that
// precedes it on the connection belongs to the abandoned attempt and is
// discarded by the receiver.
const (
	ctrlOutcome uint32 = 1
	ctrlReady   uint32 = 2
)

// ctrlOK is the ctrlOutcome flag bit announcing a successful attempt.
const ctrlOK uint32 = 1

const (
	helloMagic uint32 = 0x4d504351 // "MPCQ"
	// helloVersion 4 made the protocol owner-computes: records are routed to
	// the owners of their destinations, round-ends declare per-destination
	// counts, owners confirm them in groups of more than two ranks, and
	// output gathers close computation phases. Version 3
	// replaced the per-batch data frame with the per-sender record frame;
	// version 2 added the hello epoch field and the frameCtrl frame type
	// (recovery barriers). Older peers are refused at the handshake.
	helloVersion uint32 = 4
)

// recordHeaderLen is the fixed part of a record frame's body: cluster(4),
// round(4), seq(4), sender(4), items(4).
const recordHeaderLen = 20

// DataFrameOverheadBytes is the framing overhead of one record frame: the
// 4-byte length prefix, the type byte, and the fixed header. Every item in
// the frame adds a header of its own, so the wire bytes of a round are
// Σ payload + DataFrameOverheadBytes × frames + Σ item headers +
// round-end/hello control frames.
const DataFrameOverheadBytes = 4 + 1 + recordHeaderLen

// Record items. A record lists one sender's staging for one round in the
// order engine.Emitter.WalkStaged replays it; an item is one staged batch,
// or the continuation of the item before it where a frame cut that one. An
// item is a tag byte and a width byte, then unsigned varints — arity, count
// and the fields its tag adds — then count×arity values of width bytes
// each. A batch of a few tuples to one server has a 6-byte header.
const (
	itemBatch byte = 1 // + kind, dest: a batch to one server
	itemGroup byte = 2 // + kind, base, members, one offset per member: a batch to the subcube base+offset[·]
	itemBcast byte = 3 // + kind: a broadcast batch
	itemMore  byte = 4 // nothing more: further tuples of the item before it
)

// minItemLen is the shortest item: a tag, a width and two one-byte varints.
const minItemLen = 4

// maxFrameLen bounds a frame body so a corrupt or hostile length prefix
// cannot make the reader allocate unboundedly; records are cut below it.
const maxFrameLen = 1 << 26

// errMalformed is wrapped by every decode error, so tests can assert the
// decoder rejects (rather than panics on) arbitrary input.
var errMalformed = errors.New("transport: malformed frame")

// recordFrame is one decoded record frame: a piece of the record model
// server Sender staged in round Round of cluster Cluster, holding Items
// items, undecoded, in Body (which aliases the read buffer). Seq numbers
// the frames a rank sends for one (cluster, round), letting receivers drop
// duplicates when a failed write is retried with a full resend.
type recordFrame struct {
	Cluster, Round, Seq, Sender, Items uint32
	Body                               []byte
}

// frame is the decoded union of all frame types; Typ selects which fields
// are meaningful.
type frame struct {
	typ byte

	rec recordFrame // frameRecord

	rank  uint32 // frameHello
	epoch uint32 // frameHello: sender's attempt epoch at dial time

	cluster uint32 // frameRoundEnd, frameRecord
	round   uint32 // frameRoundEnd, frameRecord
	frames  uint32 // frameRoundEnd
	counts  []byte // frameRoundEnd: per server, values u32 and tuples u32

	ckind uint32 // frameCtrl: ctrlOutcome or ctrlReady
	gen   uint32 // frameCtrl: the attempt epoch the barrier belongs to
	flags uint32 // frameCtrl: ctrlOutcome payload (ctrlOK bit)
}

// widthFor picks the per-value byte width of one batch: the compact width
// ⌈bitsPerValue/8⌉ when every value fits it, widened when values exceed
// the domain (aggregate value columns — a SUM can outgrow ⌈log₂ n⌉ bits), and
// the full 8 bytes when any value is negative. Widening keeps the wire ≥
// the model's charge: payload bits are always ≥ Count×Arity×bitsPerValue.
func widthFor(bitsPerValue int, vals []int64) uint8 {
	w := uint(bitsPerValue+7) / 8
	if w < 1 {
		w = 1
	}
	if w > 8 {
		w = 8
	}
	// The OR of the values has the largest value's top bit, and the sign
	// bit when any value is negative.
	var acc uint64
	for _, v := range vals {
		acc |= uint64(v)
	}
	return uint8(max(w, uint(bits.Len64(acc)+7)/8))
}

// appendValues appends vals to dst, width bytes per value, little-endian.
// It stores whole 8-byte words, each value's high bytes overwritten by the
// next value, into 8 bytes of slack grown up front; width must come from
// widthFor for these vals, which makes dropping the high bytes lossless.
func appendValues(dst []byte, vals []int64, width int) []byte {
	off := len(dst)
	end := off + len(vals)*width
	dst = slices.Grow(dst, end+8-off)[:end+8]
	for _, v := range vals {
		binary.LittleEndian.PutUint64(dst[off:], uint64(v))
		off += width
	}
	return dst[:end]
}

// decodeValues fills dst from payload, width bytes per value, little-endian
// and zero-extended (widthFor never narrows a negative value; width 8 is the
// identity encoding of int64). It loads whole 8-byte words while the
// payload has them and assembles the last few values byte by byte; payload
// must hold len(dst)×width bytes.
func decodeValues(dst []int64, payload []byte, width int) {
	mask := ^uint64(0) >> (64 - 8*width)
	off, i := 0, 0
	for ; i < len(dst) && off+8 <= len(payload); i++ {
		dst[i] = int64(binary.LittleEndian.Uint64(payload[off:]) & mask)
		off += width
	}
	for ; i < len(dst); i++ {
		var u uint64
		for b := 0; b < width; b++ {
			u |= uint64(payload[off+b]) << (8 * b)
		}
		dst[i] = int64(u)
		off += width
	}
}

// appendItemHeader appends the header of an item of count tuples of it.
func appendItemHeader(dst []byte, tag, width byte, it *engine.Staged, count int) []byte {
	dst = append(dst, tag, width)
	dst = binary.AppendUvarint(dst, uint64(it.Arity))
	dst = binary.AppendUvarint(dst, uint64(count))
	switch tag {
	case itemBatch:
		dst = binary.AppendUvarint(dst, uint64(it.Kind))
		dst = binary.AppendUvarint(dst, uint64(it.Dest))
	case itemGroup:
		dst = binary.AppendUvarint(dst, uint64(it.Kind))
		dst = binary.AppendUvarint(dst, uint64(it.Base))
		dst = binary.AppendUvarint(dst, uint64(len(it.Offsets)))
		for _, off := range it.Offsets {
			dst = binary.AppendUvarint(dst, uint64(off))
		}
	case itemBcast:
		dst = binary.AppendUvarint(dst, uint64(it.Kind))
	}
	return dst
}

// recordWriter cuts the records of one rank's senders for one round into a
// frame stream. A frame holds one sender's items in a body of at most
// maxBody bytes — except that a frame always takes one tuple, so a cap
// smaller than one tuple's item is overrun by that tuple rather than
// stalling. An item a frame cut goes on as an itemMore at the start of the
// next frame.
type recordWriter struct {
	buf            []byte // the stream, reused across rounds
	hdr            []byte // item header scratch
	cluster, round uint32
	maxBody        int

	frames  uint32 // frames closed so far: the seq of the next one
	headers int64  // framing and item-header bytes written

	start int    // buf offset of the open frame's length prefix; -1: none
	items uint32 // items in the open frame
}

// begin starts the stream of one round.
func (w *recordWriter) begin(cluster, round uint32, maxBody int) {
	w.buf = w.buf[:0]
	w.cluster, w.round, w.maxBody = cluster, round, maxBody
	w.frames, w.headers, w.start, w.items = 0, 0, -1, 0
}

// add appends one staged batch of sender's record, width bytes per value.
func (w *recordWriter) add(sender uint32, it *engine.Staged, width uint8) {
	tag := itemBatch
	switch {
	case it.Offsets != nil:
		tag = itemGroup
	case it.Dest == engine.Broadcast:
		tag = itemBcast
	}
	row := it.Arity * int(width)
	for vals := it.Vals; len(vals) > 0; {
		if w.start < 0 {
			w.open(sender)
		}
		// The header of the whole rest bounds the header of any piece of it.
		left := len(vals) / it.Arity
		w.hdr = appendItemHeader(w.hdr[:0], tag, width, it, left)
		n := min(left, (w.maxBody-(len(w.buf)-w.start-4)-len(w.hdr))/row)
		if n < 1 && w.items > 0 {
			w.close()
			continue
		}
		n = max(n, 1)
		hdr := len(w.buf)
		w.buf = appendItemHeader(w.buf, tag, width, it, n)
		w.headers += int64(len(w.buf) - hdr)
		w.buf = appendValues(w.buf, vals[:n*it.Arity], int(width))
		w.items++
		vals = vals[n*it.Arity:]
		tag = itemMore
	}
}

// open starts a frame of sender's record; close fills in its length and
// item count.
func (w *recordWriter) open(sender uint32) {
	w.start = len(w.buf)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, 0)
	w.buf = append(w.buf, frameRecord)
	for _, v := range [...]uint32{w.cluster, w.round, w.frames, sender, 0} {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	}
}

// close finishes the open frame, if there is one.
func (w *recordWriter) close() {
	if w.start < 0 {
		return
	}
	binary.LittleEndian.PutUint32(w.buf[w.start:], uint32(len(w.buf)-w.start-4))
	binary.LittleEndian.PutUint32(w.buf[w.start+DataFrameOverheadBytes-4:], w.items)
	w.frames++
	w.headers += DataFrameOverheadBytes
	w.start, w.items = -1, 0
}

// appendRoundEnd serializes the barrier frame a rank sends after the last
// record frame of one (cluster, round): frames declares how many record
// frames preceded it, so receivers know when the round is complete, and
// counts — values then tuples, for every server — what the rank's senders
// sent each server this round, or, closing a gather, each owned server's
// part, or, confirming a round, what landed in each owned server.
func appendRoundEnd(dst []byte, cluster, round, frames uint32, counts []uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(1+12+4*len(counts)))
	dst = append(dst, frameRoundEnd)
	dst = binary.LittleEndian.AppendUint32(dst, cluster)
	dst = binary.LittleEndian.AppendUint32(dst, round)
	dst = binary.LittleEndian.AppendUint32(dst, frames)
	for _, c := range counts {
		dst = binary.LittleEndian.AppendUint32(dst, c)
	}
	return dst
}

// roundEndCount reads server s's declared (values, tuples) from a
// round-end's counts.
func roundEndCount(counts []byte, s int) (values, tuples int) {
	return int(binary.LittleEndian.Uint32(counts[8*s:])), int(binary.LittleEndian.Uint32(counts[8*s+4:]))
}

// appendHello serializes the handshake frame, the first frame on every
// connection: it names the dialing rank (all later frames on the
// connection are attributed to it), pins the protocol version, and carries
// the dialer's attempt epoch so a connection opened mid-replay starts at
// the right generation.
func appendHello(dst []byte, rank, epoch uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, helloFrameLen)
	dst = append(dst, frameHello)
	dst = binary.LittleEndian.AppendUint32(dst, helloMagic)
	dst = binary.LittleEndian.AppendUint32(dst, helloVersion)
	dst = binary.LittleEndian.AppendUint32(dst, rank)
	dst = binary.LittleEndian.AppendUint32(dst, epoch)
	return dst
}

// appendCtrl serializes one recovery-barrier frame (kind ctrlOutcome or
// ctrlReady) for attempt epoch gen.
func appendCtrl(dst []byte, kind, gen, flags uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, 1+12)
	dst = append(dst, frameCtrl)
	dst = binary.LittleEndian.AppendUint32(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, gen)
	dst = binary.LittleEndian.AppendUint32(dst, flags)
	return dst
}

// decodeFrame parses one frame body (everything after the length prefix).
// Malformed input of any shape returns an error wrapping errMalformed —
// never a panic — which the fuzz target FuzzFrameDecode enforces. A record
// frame's items are checked when they are walked (itemReader), where the
// round's server count is known.
func decodeFrame(body []byte) (frame, error) {
	var f frame
	if len(body) < 1 {
		return f, fmt.Errorf("%w: empty body", errMalformed)
	}
	f.typ = body[0]
	rest := body[1:]
	switch f.typ {
	case frameHello:
		if len(rest) != 16 {
			return f, fmt.Errorf("%w: hello body is %d bytes, want 16", errMalformed, len(rest))
		}
		if magic := binary.LittleEndian.Uint32(rest[0:4]); magic != helloMagic {
			return f, fmt.Errorf("%w: bad hello magic %#x", errMalformed, magic)
		}
		if v := binary.LittleEndian.Uint32(rest[4:8]); v != helloVersion {
			return f, fmt.Errorf("%w: protocol version %d, want %d", errMalformed, v, helloVersion)
		}
		f.rank = binary.LittleEndian.Uint32(rest[8:12])
		f.epoch = binary.LittleEndian.Uint32(rest[12:16])
		return f, nil
	case frameCtrl:
		if len(rest) != 12 {
			return f, fmt.Errorf("%w: ctrl body is %d bytes, want 12", errMalformed, len(rest))
		}
		f.ckind = binary.LittleEndian.Uint32(rest[0:4])
		f.gen = binary.LittleEndian.Uint32(rest[4:8])
		f.flags = binary.LittleEndian.Uint32(rest[8:12])
		if f.ckind != ctrlOutcome && f.ckind != ctrlReady {
			return f, fmt.Errorf("%w: unknown ctrl kind %d", errMalformed, f.ckind)
		}
		return f, nil
	case frameRoundEnd:
		if len(rest) < 12 || (len(rest)-12)%8 != 0 {
			return f, fmt.Errorf("%w: round-end body is %d bytes, want 12 + 8 per server", errMalformed, len(rest))
		}
		f.cluster = binary.LittleEndian.Uint32(rest[0:4])
		f.round = binary.LittleEndian.Uint32(rest[4:8])
		f.frames = binary.LittleEndian.Uint32(rest[8:12])
		f.counts = rest[12:]
		return f, nil
	case frameRecord:
		if len(rest) < recordHeaderLen {
			return f, fmt.Errorf("%w: record header is %d bytes, want %d", errMalformed, len(rest), recordHeaderLen)
		}
		r := &f.rec
		r.Cluster = binary.LittleEndian.Uint32(rest[0:4])
		r.Round = binary.LittleEndian.Uint32(rest[4:8])
		r.Seq = binary.LittleEndian.Uint32(rest[8:12])
		r.Sender = binary.LittleEndian.Uint32(rest[12:16])
		r.Items = binary.LittleEndian.Uint32(rest[16:20])
		r.Body = rest[recordHeaderLen:]
		f.cluster, f.round = r.Cluster, r.Round
		if uint64(r.Items)*minItemLen > uint64(len(r.Body)) {
			return f, fmt.Errorf("%w: %d items cannot fit in %d bytes", errMalformed, r.Items, len(r.Body))
		}
		return f, nil
	default:
		return f, fmt.Errorf("%w: unknown frame type %d", errMalformed, f.typ)
	}
}

// itemReader walks the items of one record frame and owns what every item
// has. next reads an item's tag, width, arity and count; the caller reads
// the fields its tag adds (field) and rejects a tag or field its record
// does not take (fail); payload checks the item and returns its values'
// bytes. A field that is truncated, or larger than any frame could pay for,
// reads as 0 and fails the item. Every error wraps errMalformed, and an item
// is rejected before anything is taken from it, so what a record yields
// never exceeds what its bytes pay for.
type itemReader struct {
	body     []byte // the current item and those after it
	rest     []byte // the current item's header after the fields read
	items, i uint32 // the frame's items; the current one
	tag      byte
	width    int
	arity    int
	count    int
	bad      bool // a field was truncated or out of range
	err      error
}

// next starts the next item; false after the last one, or once the walk
// failed. Bytes after the last item are malformed.
func (r *itemReader) next() bool {
	switch {
	case r.err != nil:
		return false
	case r.i == r.items:
		if len(r.body) > 0 {
			r.err = fmt.Errorf("%w: %d bytes after the last item", errMalformed, len(r.body))
		}
		return false
	case len(r.body) < minItemLen:
		r.fail("header truncated")
		return false
	}
	r.tag, r.width, r.rest, r.bad = r.body[0], int(r.body[1]), r.body[2:], false
	r.arity, r.count = r.field(), r.field()
	return true
}

// field reads the next varint field of the current item's header.
func (r *itemReader) field() int {
	v, n := binary.Uvarint(r.rest)
	if n <= 0 || v > maxFrameLen {
		r.bad = true
		return 0
	}
	r.rest = r.rest[n:]
	return int(v)
}

// fail rejects the current item, unless the walk failed already.
func (r *itemReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: item %d: %s", errMalformed, r.i, fmt.Sprintf(format, args...))
	}
}

// payload checks the current item — no field truncated or out of range, a
// width in [1,8], a non-zero arity and count, and count × arity values of
// payload — and returns the payload, or nil once the walk failed.
func (r *itemReader) payload() []byte {
	size := r.count * r.arity * r.width
	switch {
	case r.err != nil:
	case r.bad:
		r.fail("header truncated or out of range")
	case r.width < 1 || r.width > 8:
		r.fail("width %d out of range [1,8]", r.width)
	case r.arity < 1:
		r.fail("zero arity")
	case r.count == 0:
		r.fail("no tuples")
	case len(r.rest) < size:
		r.fail("payload is %d bytes, header declares %d", len(r.rest), size)
	default:
		payload := r.rest[:size]
		r.body, r.i = r.rest[size:], r.i+1
		return payload
	}
	return nil
}

// maxInternedBytes bounds the offset tables one replayer interns: a table
// past it is decoded afresh for every group naming it, so a peer cannot
// grow the table map without bound.
const maxInternedBytes = 1 << 20

// replayer restages record frames on receive-side emitters for a round of
// p servers. It carries the arity of the item an itemMore continues from
// one frame of a sender to the next, and interns group offset tables by
// their wire bytes, so a warm replay allocates nothing per item or group.
type replayer struct {
	p        int
	arity    int // arity of the item an itemMore continues; 0: none yet
	tables   map[string][]int
	interned int // bytes of the tables interned so far
}

// start prepares the replayer for the records of one sender of a round of
// p servers.
func (r *replayer) start(p int) { r.p, r.arity = p, 0 }

// record stages the items of one record frame on em, the receive-side
// emitter of the frame's sender. Besides what itemReader rejects, an item
// with an unknown tag, a destination or member ≥ p, an empty member list,
// or a continuation with no item to continue or of another arity is
// malformed.
func (r *replayer) record(rec *recordFrame, em *engine.Emitter) error {
	items := itemReader{body: rec.Body, items: rec.Items}
	for items.next() {
		var kind, dest, base int
		var offsets []int
		switch items.tag {
		case itemBatch:
			if kind, dest = items.field(), items.field(); dest >= r.p {
				items.fail("destination %d out of range for %d servers", dest, r.p)
			}
		case itemGroup:
			kind, base = items.field(), items.field()
			offsets = r.members(&items, base)
		case itemBcast:
			kind, dest = items.field(), engine.Broadcast
		case itemMore:
			if items.arity != r.arity {
				items.fail("continuation of arity %d, the open item has %d", items.arity, r.arity)
			}
		default:
			items.fail("unknown tag %d", items.tag)
		}
		payload := items.payload()
		if payload == nil {
			break
		}
		n := items.count * items.arity
		var dst []int64
		switch items.tag {
		case itemGroup:
			dst = em.StageGroup(base, offsets, kind, items.arity, n)
		case itemMore:
			dst = em.StageMore(n)
		default:
			dst = em.StageBatch(dest, kind, items.arity, n)
		}
		decodeValues(dst, payload, items.width)
		r.arity = items.arity
	}
	return items.err
}

// members reads a group item's member list, every member base+offset below
// p, and returns its offsets, interned by their wire bytes: one slice per
// distinct table, shared by every group that names it.
func (r *replayer) members(items *itemReader, base int) []int {
	members := items.field()
	if members > len(items.rest) {
		items.bad = true // every offset takes a byte at least
	}
	raw := items.rest
	for j := 0; j < members && !items.bad; j++ {
		if m := base + items.field(); m >= r.p && !items.bad {
			items.fail("member %d out of range for %d servers", m, r.p)
		}
	}
	if members == 0 {
		items.fail("empty member list")
	}
	if raw = raw[:len(raw)-len(items.rest)]; items.bad || items.err != nil {
		return nil
	}
	if t, ok := r.tables[string(raw)]; ok {
		return t
	}
	t := make([]int, 0, members)
	for rd := (itemReader{rest: raw}); len(rd.rest) > 0; {
		t = append(t, rd.field())
	}
	if r.interned+len(raw) <= maxInternedBytes {
		if r.tables == nil {
			r.tables = make(map[string][]int)
		}
		r.tables[string(raw)] = t
		r.interned += len(raw)
	}
	return t
}

// gatherPart walks one record frame of server sender's part of an output
// gather: items of the gather's arity, each an itemBatch addressed to the
// server itself or the continuation of one. It places them in turn at the
// front of dst, the values the part has left, appending to pieces the
// pieces that do, and returns what is left of dst.
func gatherPart(rec *recordFrame, arity int, dst []int64, pieces []gatherPiece) ([]int64, []gatherPiece, error) {
	items := itemReader{body: rec.Body, items: rec.Items}
	for items.next() {
		switch items.tag {
		case itemBatch:
			if _, dest := items.field(), items.field(); dest != int(rec.Sender) {
				items.fail("a part of server %d addressed to %d", rec.Sender, dest)
			}
		case itemMore:
		default:
			items.fail("tag %d in a gather", items.tag)
		}
		n := items.count * arity
		if items.arity != arity {
			items.fail("arity %d, the gather's is %d", items.arity, arity)
		} else if n > len(dst) {
			items.fail("the part outgrows its declared values")
		}
		if payload := items.payload(); payload != nil {
			pieces = appendPiece(pieces, gatherPiece{dst: dst[:n], payload: payload, width: items.width})
			dst = dst[n:]
		}
	}
	return dst, pieces, items.err
}
