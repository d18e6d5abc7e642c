package mpcquery

import (
	"sync"

	"mpcquery/internal/engine"
	"mpcquery/internal/hashing"
)

// OutputSink receives the query output as a stream of row-major chunks
// instead of a materialized relation (install with WithOutputSink). Chunk
// may be called concurrently for different servers — one goroutine per
// server at a time; within one server, calls arrive in output order. The
// vals slice is reused by the caller after Chunk returns: consume or copy
// it synchronously.
type OutputSink = engine.OutputSink

// DigestSink is an OutputSink that verifies a streamed output without
// holding it: per server it folds the chunk stream into a running
// order-sensitive digest (one hashing.Combine per value) and a row count, in
// O(servers) memory total. Digest() then merges the per-server streams in
// ascending server order — the order engine.Concat stacks per-server outputs —
// so a barrier run's materialized output and a streamed run's sink agree
// digest for digest. The streaming equivalence tests (TestStreamingOutputSink
// and its giant-output instance) are its consumers.
type DigestSink struct {
	mu      sync.Mutex
	servers []*digestStream // pointers: a stream stays put when the slice grows
}

type digestStream struct {
	rows   int
	arity  int
	digest uint64
}

// digestSeed starts every per-server stream and the merged digest.
const digestSeed = 14695981039346656037

// Chunk folds one row-major block of server s's output into its stream. The
// sink-wide lock is held only to find the stream and to publish the result;
// the fold itself runs outside it, so the workers of a compute phase do not
// serialise on the sink. That is safe because one server's chunks arrive from
// one goroutine at a time (the OutputSink contract): nobody else moves this
// stream between the two critical sections.
func (d *DigestSink) Chunk(server, arity int, vals []int64) {
	d.mu.Lock()
	for len(d.servers) <= server {
		d.servers = append(d.servers, nil)
	}
	st := d.servers[server]
	if st == nil {
		st = &digestStream{arity: arity, digest: digestSeed}
		d.servers[server] = st
	}
	h := st.digest
	d.mu.Unlock()

	for _, v := range vals {
		h = hashing.Combine(h, uint64(v))
	}

	d.mu.Lock()
	st.digest = h
	if arity > 0 {
		st.rows += len(vals) / arity
	}
	d.mu.Unlock()
}

// Tuples returns the total rows streamed so far, across all servers.
func (d *DigestSink) Tuples() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, st := range d.servers {
		if st != nil {
			n += st.rows
		}
	}
	return n
}

// Digest returns an order-sensitive digest of the whole streamed output:
// the per-server stream digests combined in ascending server order. Two
// runs produce the same Digest exactly when every server emitted the same
// rows in the same order — the property the streaming differential tests
// pin against a barrier run's materialized relation.
func (d *DigestSink) Digest() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := uint64(digestSeed)
	for i, st := range d.servers {
		if st == nil {
			continue
		}
		h = hashing.Combine(h, uint64(i))
		h = hashing.Combine(h, uint64(st.rows))
		h = hashing.Combine(h, st.digest)
	}
	return h
}

// ServerDigest is one server's folded output stream, as PerServer reports
// it.
type ServerDigest struct {
	Server int
	Rows   int
	Arity  int
	Digest uint64
}

// PerServer returns the live per-server streams in ascending server order.
// A materialized relation built by stacking per-server outputs in the same
// order (engine.Concat) can be reconciled against it slice by slice: fold
// each server's slice through a fresh DigestSink and compare digests.
func (d *DigestSink) PerServer() []ServerDigest {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]ServerDigest, 0, len(d.servers))
	for i, st := range d.servers {
		if st == nil {
			continue
		}
		out = append(out, ServerDigest{Server: i, Rows: st.rows, Arity: st.arity, Digest: st.digest})
	}
	return out
}
