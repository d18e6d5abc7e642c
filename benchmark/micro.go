package main

import (
	"fmt"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/hashing"
	"mpcquery/internal/transport"
)

// engineRound pushes the dataset's tuples through one communication round of
// a bare cluster: every server sends each of its tuples to the server its
// first value hashes to, tuple by tuple or as one block per destination. It
// returns nanoseconds per tuple of the round alone, recorded as a span of
// the layer; seeding is not timed.
func engineRound(rec *recorder, layer string, d *dataset, net engine.Transport, batch bool) float64 {
	c := engine.NewClusterNet(net, servers, data.BitsPerValue(d.db.N))
	defer c.Release()
	for j, a := range d.q.Atoms {
		rel := d.db.Get(a.Name)
		for i, m := 0, rel.NumTuples(); i < m; i++ {
			c.Seed(i%servers, j, rel.Tuple(i))
		}
	}
	dest := func(t []int64) int { return int(hashing.Mix64(uint64(t[0])) % servers) }
	send := func(s int, in *engine.Inbox, emit *engine.Emitter) {
		in.Each(func(kind int, t []int64) { emit.EmitTuple(dest(t), kind, t) })
	}
	if batch {
		// The same traffic, bucketed beforehand into one block per
		// (sender, destination, kind).
		kinds := d.q.NumAtoms()
		blocks := make([][][]int64, servers)
		for s := range blocks {
			blocks[s] = make([][]int64, servers*kinds)
			c.Inbox(s).Each(func(kind int, t []int64) {
				k := dest(t)*kinds + kind
				blocks[s][k] = append(blocks[s][k], t...)
			})
		}
		send = func(s int, _ *engine.Inbox, emit *engine.Emitter) {
			for k, vals := range blocks[s] {
				emit.EmitBatch(k/kinds, k%kinds, d.q.Atoms[k%kinds].Arity(), vals)
			}
		}
	}
	name := "engine.Round/EmitTuple"
	if batch {
		name = "engine.Round/EmitBatch"
	}
	return rec.once(name, layer, func() { c.Round("benchmark", send) }) * 1e6 / float64(d.tuples)
}

// transportRound is engineRound's tuple-by-tuple traffic over a freshly
// dialled two-rank loopback session, both ranks running the round (SPMD);
// it returns rank 0's nanoseconds per tuple, median of microReps rounds.
func transportRound(rec *recorder, d *dataset) (float64, error) {
	sessions, err := dialAll(2, func(rank int, addrs []string) (*transport.Session, error) {
		return transport.Dial(rank, addrs, nil)
	})
	if err != nil {
		return 0, err
	}
	for _, sess := range sessions {
		defer sess.Close()
	}

	// A failed delivery surfaces from the engine as a panic carrying the
	// transport's error; report it as this function's error.
	round := func(rec *recorder, s *transport.Session) (ns float64, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("round over loopback session: %v", r)
			}
		}()
		return engineRound(rec, "transport", d, s, false), nil
	}
	var roundErr error
	nsPerTuple := repeat(microReps, func() float64 {
		peerErr := make(chan error, 1)
		go func() {
			_, err := round(&recorder{}, sessions[1])
			peerErr <- err
		}()
		ns, err := round(rec, sessions[0])
		if perr := <-peerErr; err == nil {
			err = perr
		}
		if roundErr == nil {
			roundErr = err
		}
		return ns
	})
	return nsPerTuple, roundErr
}
