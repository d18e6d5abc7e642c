package transport

import (
	"errors"
	"testing"

	"mpcquery/internal/engine"
)

// fuzzServers is the server count fuzzed records are replayed at.
const fuzzServers = 6

// FuzzFrameDecode is the decoder's safety contract: arbitrary bytes must
// either decode into a well-formed frame or return an error — never panic,
// never over-read. A decoded record frame is then replayed as the only
// record of a one-rank round of fuzzServers servers: it is either rejected
// as malformed or restages a round DeliverLocal lands, having staged no more
// values than the frame has bytes and landing exactly the tuples its items
// name. Seeds cover every frame type and every item type; the checked-in
// corpus under testdata/fuzz/FuzzFrameDecode pins regression inputs.
func FuzzFrameDecode(f *testing.F) {
	f.Add(appendHello(nil, 3, 0)[4:])
	f.Add(appendRoundEnd(nil, 1, 2, 3)[4:])
	f.Add(appendCtrl(nil, ctrlOutcome, 1, ctrlOK)[4:])
	f.Add(appendCtrl(nil, ctrlReady, 2, 1)[4:])
	f.Add(rawRecord(2, rawItem(itemBatch, 2, []uint64{2, 2, 0, 5}, []byte{1, 0, 2, 0, 3, 0, 4, 0}))[4:])
	f.Add(rawRecord(0, rawItem(itemGroup, 8, []uint64{1, 1, 1, 2, 3, 0, 1, 3}, appendValues(nil, []int64{-1}, 8)))[4:])
	f.Add(rawRecord(5, rawItem(itemBcast, 1, []uint64{3, 1, 0}, []byte{1, 2, 3}))[4:])
	f.Add(rawRecord(1, rawItem(itemBatch, 1, []uint64{1, 1, 0, 0}, []byte{9}), rawItem(itemMore, 1, []uint64{1, 2}, []byte{8, 7}))[4:])
	f.Add([]byte{})
	f.Add([]byte{frameRecord})
	f.Add(mutate(rawRecord(1, rawItem(itemBcast, 1, []uint64{1, 1, 0}, []byte{1}))[4:], 1+16, 0xff, 0xff, 0xff, 0xff))
	f.Add(rawRecord(1, rawItem(itemGroup, 1, []uint64{1, 1, 0, 4, 2, 0, 2}, []byte{1}))[4:])
	f.Fuzz(func(t *testing.T, body []byte) {
		fr, err := decodeFrame(body)
		if err != nil || fr.typ != frameRecord {
			return
		}
		l := &tcpLink{s: &Session{n: 1}}
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
				switch {
				case it.Offsets != nil:
					members = len(it.Offsets)
				case it.Dest == engine.Broadcast:
					members = fuzzServers
				}
				values += len(it.Vals)
				tuples += len(it.Vals) / it.Arity * members
			})
		}
		if values > len(body) {
			t.Fatalf("staged %d values from a %d-byte frame", values, len(body))
		}
		round := &engine.DeliveryRound{P: fuzzServers, BitsPerValue: 8, Senders: senders,
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
