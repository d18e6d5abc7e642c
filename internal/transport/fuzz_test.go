package transport

import (
	"errors"
	"testing"

	"mpcquery/internal/engine"
)

// fuzzServers is the server count fuzzed records are replayed at.
const fuzzServers = 64

// wholeGrid returns the header fields of a group item of count tuples of the
// given arity, kind 0, addressed to every one of the fuzzServers servers.
func wholeGrid(arity, count uint64) []uint64 {
	fields := []uint64{arity, count, 0, 0, fuzzServers}
	for off := uint64(0); off < fuzzServers; off++ {
		fields = append(fields, off)
	}
	return fields
}

// FuzzFrameDecode is the decoder's safety contract: arbitrary bytes must
// either decode into a well-formed frame or return an error — never panic,
// never over-read. A decoded record frame is then replayed as the only
// record of a one-rank round of fuzzServers servers: it is either rejected
// as malformed or restages a round DeliverLocal lands, having staged no more
// values than the frame has bytes and landing exactly the tuples its items
// name. The record is also walked as one server's part of an output gather
// of arity 1, 2 and 3: it is either rejected as malformed or places no more
// values than the frame has bytes, each decoded from a payload that holds
// it. Seeds cover every frame type, every item type and the retired
// broadcast tag 3; the checked-in corpus under testdata/fuzz/FuzzFrameDecode
// pins regression inputs.
func FuzzFrameDecode(f *testing.F) {
	f.Add(appendHello(nil, 3, 0)[4:])
	f.Add(appendRoundEnd(nil, 1, 2, 3, make([]uint32, 2*fuzzServers))[4:])
	// A round-end whose counts are not 8 bytes a server, and one declaring
	// counts for the wrong number of servers.
	f.Add(appendRoundEnd(nil, 1, 2, 3, []uint32{4, 2, 1})[4:])
	f.Add(appendRoundEnd(nil, 1, 2, 3, []uint32{4, 2, 1, 1})[4:])
	f.Add(appendCtrl(nil, ctrlOutcome, 1, ctrlOK)[4:])
	f.Add(appendCtrl(nil, ctrlReady, 2, 1)[4:])
	f.Add(rawRecord(2, rawItem(itemBatch, 2, []uint64{2, 2, 0, 5}, []byte{1, 0, 2, 0, 3, 0, 4, 0}))[4:])
	f.Add(rawRecord(0, rawItem(itemGroup, 8, []uint64{1, 1, 1, 2, 3, 0, 1, 3}, appendValues(nil, []int64{-1}, 8)))[4:])
	f.Add(rawRecord(5, rawItem(itemGroup, 1, wholeGrid(3, 1), []byte{1, 2, 3}))[4:])
	f.Add(rawRecord(1, rawItem(itemBatch, 1, []uint64{1, 1, 0, 0}, []byte{9}), rawItem(itemMore, 1, []uint64{1, 2}, []byte{8, 7}))[4:])
	f.Add([]byte{})
	f.Add([]byte{frameRecord})
	f.Add(mutate(rawRecord(1, rawItem(itemGroup, 1, wholeGrid(1, 1), []byte{1}))[4:], 1+16, 0xff, 0xff, 0xff, 0xff))
	f.Add(rawRecord(1, rawItem(itemGroup, 1, []uint64{1, 1, 0, 4, 2, 0, 2}, []byte{1}))[4:])
	f.Add(rawRecord(2, rawItem(3, 1, []uint64{2, 1, 0}, []byte{1, 2}))[4:])
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := decodeFrame(body)
		l := &tcpLink{s: &Session{n: 1}, p: fuzzServers}
		if err == nil && fr.typ == frameRoundEnd {
			if err := l.checkCounts(0, fr.counts, "fuzzed round-end"); err != nil {
				if !errors.Is(err, errMalformed) {
					t.Fatalf("round-end counts failed with %v, not a malformed-frame error", err)
				}
				return
			}
			for d := 0; d < fuzzServers; d++ {
				roundEndCount(fr.counts, d)
			}
		}
		if err != nil || fr.typ != frameRecord {
			return
		}
		for arity := 1; arity <= 3; arity++ {
			room := 8*len(body) + 8
			left, pieces, err := gatherPart(&fr.rec, arity, make([]int64, room), nil)
			if err != nil {
				if !errors.Is(err, errMalformed) {
					t.Fatalf("gather part of arity %d failed with %v, not a malformed-frame error", arity, err)
				}
				continue
			}
			placed := 0
			for _, pc := range pieces {
				if len(pc.payload) != len(pc.dst)*pc.width {
					t.Fatalf("a piece of %d values has %d payload bytes at width %d", len(pc.dst), len(pc.payload), pc.width)
				}
				decodeValues(pc.dst, pc.payload, pc.width)
				placed += len(pc.dst)
			}
			if placed > len(body) || placed != room-len(left) {
				t.Fatalf("gather part of arity %d placed %d values (%d slots used) from a %d-byte frame",
					arity, placed, room-len(left), len(body))
			}
		}
		if err := l.restage([][]recordFrame{{fr.rec}}, fuzzServers); err != nil {
			if !errors.Is(err, errMalformed) {
				t.Fatalf("replay failed with %v, not a malformed-frame error", err)
			}
			return
		}
		senders := (*l.recv)[:fuzzServers]
		values, tuples := 0, 0
		for _, em := range senders {
			em.WalkStaged(func(it engine.Staged) {
				members := 1
				if it.Offsets != nil {
					members = len(it.Offsets)
				}
				values += len(it.Vals)
				tuples += len(it.Vals) / it.Arity * members
			})
		}
		if values > len(body) {
			t.Fatalf("staged %d values from a %d-byte frame", values, len(body))
		}
		round := &engine.DeliveryRound{P: fuzzServers, BitsPerValue: 8, Senders: senders, Hi: fuzzServers,
			Inboxes:    make([]*engine.Inbox, fuzzServers),
			RecvBits:   make([]float64, fuzzServers),
			RecvTuples: make([]int, fuzzServers)}
		for d := range round.Inboxes {
			round.Inboxes[d] = &engine.Inbox{}
		}
		engine.DeliverLocal(round)
		landed := 0
		for _, n := range round.RecvTuples {
			landed += n
		}
		if landed != tuples {
			t.Fatalf("landed %d tuples, the record names %d", landed, tuples)
		}
	})
}
