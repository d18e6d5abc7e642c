package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mpcquery/internal/engine"
)

// TestWidthFor pins the width rules: compact ⌈bpv/8⌉ by default, widened
// when values outgrow the domain width, full 8 bytes for negatives.
func TestWidthFor(t *testing.T) {
	cases := []struct {
		bpv  int
		vals []int64
		want uint8
	}{
		{16, []int64{0, 1, 65535}, 2},
		{17, []int64{0, 1 << 16}, 3},
		{16, []int64{1 << 20}, 3},       // annotation outgrew the domain
		{16, []int64{1 << 30}, 4},       //
		{16, []int64{-1}, 8},            // negative → identity width
		{16, []int64{5, -3, 7}, 8},      //
		{1, []int64{0, 1}, 1},           //
		{64, []int64{1}, 8},             //
		{16, nil, 2},                    // empty batch keeps compact width
		{8, []int64{255}, 1},            //
		{8, []int64{256}, 2},            //
		{16, []int64{(1 << 56) - 1}, 7}, //
		{16, []int64{1 << 56}, 8},       //
		{16, []int64{0x7fffffffffffffff}, 8},
	}
	for _, c := range cases {
		if got := widthFor(c.bpv, c.vals); got != c.want {
			t.Errorf("widthFor(%d, %v) = %d, want %d", c.bpv, c.vals, got, c.want)
		}
	}
}

// randValue draws a domain value, an annotation far above the domain, a
// negative annotation, or a small constant.
func randValue(rng *rand.Rand, bpv int) int64 {
	switch rng.Intn(5) {
	case 0:
		return rng.Int63n(1 << uint(min(bpv, 62)))
	case 1:
		return rng.Int63()
	case 2:
		return -rng.Int63()
	case 3:
		return 0
	}
	return int64(rng.Intn(3)) - 1
}

// land delivers the round staged on em, its only sender, to p servers
// through DeliverLocal and renders every inbox and its accounting.
func land(em *engine.Emitter, p, bpv int) string {
	round := &engine.DeliveryRound{P: p, BitsPerValue: bpv, Senders: []*engine.Emitter{em}, Hi: p,
		Inboxes: make([]*engine.Inbox, p), RecvBits: make([]float64, p), RecvTuples: make([]int, p)}
	for d := range round.Inboxes {
		round.Inboxes[d] = &engine.Inbox{}
	}
	engine.DeliverLocal(round)
	var b strings.Builder
	for d, ib := range round.Inboxes {
		fmt.Fprintf(&b, "server %d (%v bits, %d tuples):", d, round.RecvBits[d], round.RecvTuples[d])
		ib.EachBatch(func(bt engine.Batch) { fmt.Fprintf(&b, " k%d a%d %v;", bt.Kind, bt.Arity, bt.Vals) })
		b.WriteByte('\n')
	}
	return b.String()
}

// readStream splits a serialized round stream into its record frames.
func readStream(t *testing.T, stream []byte) []recordFrame {
	t.Helper()
	var frames []recordFrame
	for len(stream) > 0 {
		n := binary.LittleEndian.Uint32(stream)
		f, err := decodeFrame(stream[4 : 4+n])
		if err != nil {
			t.Fatalf("frame %d: %v", len(frames), err)
		}
		if f.typ == frameRecord {
			frames = append(frames, f.rec)
		}
		stream = stream[4+n:]
	}
	return frames
}

// TestCodecRoundTripProperty stages random rounds — batches, group batches
// over shared offset tables and over every server, with annotation-width and
// negative values — cuts the record at random frame caps,
// replays the frames on a fresh emitter, and requires the replay to land
// the same inboxes and accounting through DeliverLocal as the original.
func TestCodecRoundTripProperty(t *testing.T) {
	const p = 7
	rng := rand.New(rand.NewSource(42))
	tables := [][]int{{0, 2, 1}, {0, 1}, {0, 3, 1, 2}}
	all := []int{0, 1, 2, 3, 4, 5, 6}
	for iter := 0; iter < 300; iter++ {
		bpv := 1 + rng.Intn(64)
		src := &engine.Emitter{}
		src.Restage(p)
		for i, n := 0, rng.Intn(20); i < n; i++ {
			kind := rng.Intn(4)
			arity := 1 + kind
			size := (1 + rng.Intn(6)) * arity
			var vals []int64
			switch rng.Intn(3) {
			case 0:
				vals = src.StageBatch(rng.Intn(p), kind, arity, size)
			case 1:
				vals = src.StageGroup(0, all, kind, arity, size)
			default:
				vals = src.StageGroup(rng.Intn(p-3), tables[rng.Intn(len(tables))], kind, arity, size)
			}
			for j := range vals {
				vals[j] = randValue(rng, bpv)
			}
		}
		var w recordWriter
		w.begin(1, 2, 30+rng.Intn(400))
		src.WalkStaged(func(it engine.Staged) { w.add(3, &it, widthFor(bpv, it.Vals)) })
		w.close()

		got := &engine.Emitter{}
		got.Restage(p)
		var r replayer
		r.start(p)
		frames := readStream(t, w.buf)
		for i := range frames {
			if f := &frames[i]; f.Cluster != 1 || f.Round != 2 || f.Seq != uint32(i) || f.Sender != 3 {
				t.Fatalf("iter %d: frame %d is cluster %d round %d seq %d sender %d", iter, i, f.Cluster, f.Round, f.Seq, f.Sender)
			}
			if err := r.record(&frames[i], got); err != nil {
				t.Fatalf("iter %d: frame %d: %v", iter, i, err)
			}
		}
		if len(frames) != int(w.frames) {
			t.Fatalf("iter %d: %d frames in the stream, the writer counted %d", iter, len(frames), w.frames)
		}
		if a, b := land(src, p, bpv), land(got, p, bpv); a != b {
			t.Fatalf("iter %d: the replay lands\n%s\nthe original lands\n%s", iter, b, a)
		}
	}
}

// TestReplayAllocatesNothing: replaying a warm round's records — batches,
// group batches whose offset tables are interned, the whole grid's among
// them, and cut continuations — allocates nothing per item or group.
func TestReplayAllocatesNothing(t *testing.T) {
	const p = 8
	src := &engine.Emitter{}
	src.Restage(p)
	table, all := []int{0, 2, 4}, []int{0, 1, 2, 3, 4, 5, 6, 7}
	for i := 0; i < 9; i++ {
		copy(src.StageBatch((3+i)%p, 0, 2, 6), []int64{int64(i), 1, 2, 3, 4, 5})
		copy(src.StageGroup(i%4, table, 1, 3, 3), []int64{int64(i), 2, 3})
		copy(src.StageGroup(0, all, 0, 2, 2), []int64{int64(i), 4})
	}
	var w recordWriter
	w.begin(0, 0, 32)
	src.WalkStaged(func(it engine.Staged) { w.add(3, &it, widthFor(8, it.Vals)) })
	w.close()
	frames := readStream(t, w.buf)
	got := &engine.Emitter{}
	var r replayer
	if allocs := testing.AllocsPerRun(10, func() {
		got.Restage(p)
		r.start(p)
		for i := range frames {
			if err := r.record(&frames[i], got); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Errorf("a warm replay allocates %v objects per round", allocs)
	}
	if land(got, p, 8) != land(src, p, 8) {
		t.Fatal("the replay does not land like the original")
	}
}

// TestCodecControlRoundTrip covers the hello, round-end and ctrl frames.
func TestCodecControlRoundTrip(t *testing.T) {
	enc := appendHello(nil, 7, 2)
	f, err := decodeFrame(enc[4:])
	if err != nil || f.typ != frameHello || f.rank != 7 || f.epoch != 2 {
		t.Fatalf("hello round-trip: %+v, %v", f, err)
	}
	enc = appendRoundEnd(nil, 3, 9, 42, []uint32{5, 1, 0, 0, 1 << 31, 7})
	f, err = decodeFrame(enc[4:])
	if err != nil || f.typ != frameRoundEnd || f.cluster != 3 || f.round != 9 || f.frames != 42 || len(f.counts) != 24 {
		t.Fatalf("round-end round-trip: %+v, %v", f, err)
	}
	for s, want := range [][2]int{{5, 1}, {0, 0}, {1 << 31, 7}} {
		if v, tu := roundEndCount(f.counts, s); v != want[0] || tu != want[1] {
			t.Errorf("round-end server %d: (%d, %d), want %v", s, v, tu, want)
		}
	}
	enc = appendCtrl(nil, ctrlOutcome, 5, ctrlOK)
	f, err = decodeFrame(enc[4:])
	if err != nil || f.typ != frameCtrl || f.ckind != ctrlOutcome || f.gen != 5 || f.flags != ctrlOK {
		t.Fatalf("ctrl outcome round-trip: %+v, %v", f, err)
	}
	enc = appendCtrl(nil, ctrlReady, 6, 1)
	f, err = decodeFrame(enc[4:])
	if err != nil || f.typ != frameCtrl || f.ckind != ctrlReady || f.gen != 6 || f.flags != 1 {
		t.Fatalf("ctrl ready round-trip: %+v, %v", f, err)
	}
	if _, err := decodeFrame([]byte{frameCtrl, 99, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatalf("unknown ctrl kind must be rejected")
	}
}

// rawItem encodes one record item by hand: tag and width, the fields as
// unsigned varints (arity, count, then what the tag adds), and payload.
func rawItem(tag, width byte, fields []uint64, payload []byte) []byte {
	b := []byte{tag, width}
	for _, f := range fields {
		b = binary.AppendUvarint(b, f)
	}
	return append(b, payload...)
}

// rawRecord frames items as one record frame of server sender in cluster 0,
// round 0, seq 0, length prefix included.
func rawRecord(sender uint32, items ...[]byte) []byte {
	b := binary.LittleEndian.AppendUint32(nil, 0)
	b = append(b, frameRecord)
	for _, v := range []uint32{0, 0, 0, sender, uint32(len(items))} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	for _, it := range items {
		b = append(b, it...)
	}
	binary.LittleEndian.PutUint32(b, uint32(len(b)-4))
	return b
}

// replayOne replays one record frame, alone, at p servers.
func replayOne(rec *recordFrame, p int) error {
	em := &engine.Emitter{}
	em.Restage(p)
	var r replayer
	r.start(p)
	return r.record(rec, em)
}

// TestDecodeMalformed feeds systematically broken frames and records and
// requires an error wrapping errMalformed — never a panic, never a silent
// success: first to the frame decoder, then to the replay of a record at
// p = 4.
func TestDecodeMalformed(t *testing.T) {
	one := []byte{7}
	batch := rawItem(itemBatch, 1, []uint64{1, 1, 0, 3}, one)
	valid := rawRecord(1, batch)[4:]
	frames := map[string][]byte{
		"empty":            {},
		"unknown type":     {99},
		"hello short":      {frameHello, 1, 2},
		"hello bad magic":  append([]byte{frameHello}, make([]byte, 16)...),
		"hello version 2":  mutate(appendHello(nil, 1, 0)[4:], 1+4, 2),
		"hello version 4":  mutate(appendHello(nil, 1, 0)[4:], 1+4, 4),
		"round-end short":  {frameRoundEnd, 1},
		"round-end ragged": appendRoundEnd(nil, 1, 2, 3, []uint32{4, 2, 1})[4:],
		"record no header": {frameRecord, 1, 2, 3},
		"record items lie": mutate(valid, 1+16, 0xff, 0xff, 0xff, 0xff),
	}
	for name, body := range frames {
		if _, err := decodeFrame(body); !errors.Is(err, errMalformed) {
			t.Errorf("%s: decode returned %v, want a malformed-frame error", name, err)
		}
	}
	records := map[string][][]byte{
		"destination ≥ p":       {rawItem(itemBatch, 1, []uint64{1, 1, 0, 4}, one)},
		"member ≥ p":            {rawItem(itemGroup, 1, []uint64{1, 1, 0, 2, 2, 0, 2}, one)},
		"empty member list":     {rawItem(itemGroup, 1, []uint64{1, 1, 0, 0, 0}, one)},
		"member list truncated": {rawItem(itemGroup, 1, []uint64{1, 1, 0, 0, 3, 0}, nil)},
		"zero arity":            {rawItem(itemBatch, 1, []uint64{0, 1, 0, 1}, one)},
		"no tuples":             {rawItem(itemBatch, 1, []uint64{1, 0, 0, 1}, nil)},
		"width 0":               {rawItem(itemBatch, 0, []uint64{1, 1, 0, 1}, one)},
		"width 9":               {rawItem(itemBatch, 9, []uint64{1, 1, 0, 1}, one)},
		"field overflows":       {rawItem(itemBatch, 1, []uint64{1, 1 << 40, 0, 1}, one)},
		"payload short":         {rawItem(itemBatch, 2, []uint64{1, 1, 0, 1}, one)},
		"unknown tag":           {rawItem(9, 1, []uint64{1, 1}, one)},
		"retired broadcast tag": {rawItem(3, 1, []uint64{1, 1, 0}, one)},
		"nothing to continue":   {rawItem(itemMore, 1, []uint64{1, 1}, one)},
		"continuation arity":    {batch, rawItem(itemMore, 1, []uint64{2, 1}, []byte{1, 2})},
		"header truncated":      {batch[:3]},
		"trailing byte":         {append(bytes.Clone(batch), 0)},
	}
	for name, items := range records {
		f, err := decodeFrame(rawRecord(1, items...)[4:])
		if err == nil {
			err = replayOne(&f.rec, 4)
		}
		if !errors.Is(err, errMalformed) {
			t.Errorf("%s: replay returned %v, want a malformed-frame error", name, err)
		}
	}
	f, err := decodeFrame(valid)
	if err == nil {
		err = replayOne(&f.rec, 4)
	}
	if err != nil {
		t.Fatalf("control: a valid record was rejected: %v", err)
	}
}

// mutate returns a copy of b with the bytes at off replaced.
func mutate(b []byte, off int, repl ...byte) []byte {
	c := bytes.Clone(b)
	copy(c[off:], repl)
	return c
}
