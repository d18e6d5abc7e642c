package mpcquery

import (
	"math/rand"
	"sync"
	"testing"

	"mpcquery/internal/transport"
)

// withStreamChunk sets the chunk size in tuples of in-process streamed
// rounds and of the sink's output chunks (0 = engine.DefaultStreamChunk);
// the Report is identical for every size. Only tests vary it.
func withStreamChunk(tuples int) RunOption { return func(c *runConfig) { c.streamChunk = tuples } }

// streamChunkSweep is the chunk-size grid the streaming differential tests
// sweep: degenerate one-tuple chunks, a small prime that never divides the
// workload evenly, 0 (the engine default), and a chunk larger than any
// round's traffic (streaming machinery on, but nothing ever splits).
var streamChunkSweep = []int{1, 7, 0, 1 << 20}

// TestStreamingMatchesBarrier is the tentpole contract at the public API:
// for every strategy family and every chunk size, a WithStreaming run is
// bit-identical to the barrier run — same Report.Fingerprint (output, load
// vector, replication, abort flag), exactly the same TotalBits (not within
// epsilon: the accounting sums identical per-chunk integers), and the same
// deterministic trace structure (round skeleton, kernel-cache totals).
// Only wall-clock and PeakBufferedBytes may differ.
func TestStreamingMatchesBarrier(t *testing.T) {
	for _, sc := range distScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			baseTr := NewTrace()
			want, err := sc.run(WithTrace(baseTr))
			if err != nil {
				t.Fatal(err)
			}
			wantFP := want.Fingerprint()
			wantStruct := baseTr.Structure()

			for _, chunk := range streamChunkSweep {
				tr := NewTrace()
				rep, err := sc.run(WithStreaming(true), withStreamChunk(chunk), WithTrace(tr))
				if err != nil {
					t.Fatalf("chunk=%d: %v", chunk, err)
				}
				if fp := rep.Fingerprint(); fp != wantFP {
					t.Errorf("chunk=%d fingerprint diverged\n got %s\nwant %s", chunk, fp, wantFP)
				}
				if rep.TotalBits != want.TotalBits {
					t.Errorf("chunk=%d TotalBits = %v, want exactly %v", chunk, rep.TotalBits, want.TotalBits)
				}
				if s := tr.Structure(); s != wantStruct {
					t.Errorf("chunk=%d trace structure diverged\n--- streaming ---\n%s--- barrier ---\n%s", chunk, s, wantStruct)
				}
			}
		})
	}
}

// TestStreamingDistributedMatchesInProcess runs a cross-section of the
// scenario table on a 3-rank TCP-loopback worker group with streaming on
// (small chunks, so frames actually split): every rank's Report must be
// bit-identical to the plain in-process barrier run, and the ranks' summed
// wire-charged bits must equal TotalBits exactly — chunk-granular framing
// changes frame counts, never charged bits.
func TestStreamingDistributedMatchesInProcess(t *testing.T) {
	const ranks = 3
	pick := map[string]bool{
		"hypercube":           true,
		"skewed-star":         true,
		"chain-plan":          true,
		"hypercube-agg-count": true,
	}
	for _, sc := range distScenarios() {
		if !pick[sc.name] {
			continue
		}
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			want, err := sc.run()
			if err != nil {
				t.Fatal(err)
			}
			wantFP := want.Fingerprint()

			addrs, err := transport.FreeLoopbackAddrs(ranks)
			if err != nil {
				t.Fatal(err)
			}
			var (
				wg    sync.WaitGroup
				fps   [ranks]string
				stats [ranks]TransportWireStats
				errs  [ranks]error
			)
			for r := 0; r < ranks; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rt, err := DialRuntime(r, addrs)
					if err != nil {
						errs[r] = err
						return
					}
					defer rt.Close()
					rep, err := sc.run(WithRuntime(rt), WithStreaming(true), withStreamChunk(7))
					if err != nil {
						errs[r] = err
						return
					}
					fps[r] = rep.Fingerprint()
					stats[r] = rt.WireStats()
				}(r)
			}
			wg.Wait()
			var charged int64
			for r := 0; r < ranks; r++ {
				if errs[r] != nil {
					t.Fatalf("rank %d: %v", r, errs[r])
				}
				if fps[r] != wantFP {
					t.Errorf("rank %d fingerprint diverged from in-process barrier run\n got %s\nwant %s", r, fps[r], wantFP)
				}
				charged += stats[r].ChargedBits()
			}
			if got := float64(charged); got != want.TotalBits {
				t.Errorf("Σ ranks charged bits = %v, Report.TotalBits = %v", got, want.TotalBits)
			}
		})
	}
}

// TestStreamingPeakMemoryRegression pins the reason streaming exists: on a
// star-skewed workload whose shuffle concentrates traffic, the streaming
// run's engine-buffer high-water comes in below the barrier run's. The gauge
// samples at round boundaries of seeded runs, so both peaks are exact and
// machine-independent. The second instance is shuffle-heavy with a modest
// output on the plain HyperCube grid: all traffic is unicast, the barrier
// peak is emitter batches + inbox arenas ≈ 2× the traffic, and pipelined
// flushing at a small chunk must cut it by at least 40 % (1 280 000 →
// 738 896 B when this was written).
func TestStreamingPeakMemoryRegression(t *testing.T) {
	cases := []struct {
		name         string
		m            int
		n            int64
		heavy        map[int64]int
		chunk        int
		minReduction float64 // required 1 − streamed/barrier; 0 = strictly below
	}{
		{"concentrated", 4000, 1 << 12, map[int64]int{5: 800}, 256, 0},
		{"shuffle-heavy", 20000, 1 << 16, map[int64]int{5: 300}, 32, 0.40},
	}
	q := Star(2)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := func() *Database {
				return SkewedStarDatabase(rand.New(rand.NewSource(77)), 2, tc.m, tc.n, tc.heavy)
			}
			barrier, err := Run(q, db(), WithStrategy(HyperCube()), WithServers(16), WithSeed(7))
			if err != nil {
				t.Fatal(err)
			}
			streamed, err := Run(q, db(), WithStrategy(HyperCube()), WithServers(16), WithSeed(7),
				WithStreaming(true), withStreamChunk(tc.chunk))
			if err != nil {
				t.Fatal(err)
			}
			if streamed.Fingerprint() != barrier.Fingerprint() {
				t.Fatalf("fingerprints diverged\n got %s\nwant %s", streamed.Fingerprint(), barrier.Fingerprint())
			}
			if barrier.PeakBufferedBytes <= 0 || streamed.PeakBufferedBytes <= 0 {
				t.Fatalf("peak gauges not wired: barrier=%d streamed=%d", barrier.PeakBufferedBytes, streamed.PeakBufferedBytes)
			}
			if streamed.PeakBufferedBytes >= barrier.PeakBufferedBytes {
				t.Errorf("streaming peak %d B >= barrier peak %d B; streaming must buffer less",
					streamed.PeakBufferedBytes, barrier.PeakBufferedBytes)
			}
			reduction := 1 - float64(streamed.PeakBufferedBytes)/float64(barrier.PeakBufferedBytes)
			if reduction < tc.minReduction {
				t.Errorf("streaming peak %d B vs barrier %d B: reduction %.3f below %.2f",
					streamed.PeakBufferedBytes, barrier.PeakBufferedBytes, reduction, tc.minReduction)
			}
		})
	}
}

// TestStreamingOutputSink covers the never-materialize path: a run with an
// output sink leaves Report.Output nil and streams chunks whose per-server
// digests reconcile exactly against the barrier run's materialized
// relation (which stacks per-server outputs in ascending server order) —
// and the sink runs themselves fingerprint identically whether the engine
// streams or not. The giant instance is the reason the path exists: one
// heavy value shared by both relations makes ~h² output rows (2 250 088,
// 54 MB) from 4 000-tuple inputs, and the streamed sink run's whole engine
// footprint must stay under a tenth of what the barrier run materializes —
// also through the skew-aware strategy, which gives the heavy value a block.
func TestStreamingOutputSink(t *testing.T) {
	cases := []struct {
		name     string
		strategy Strategy
		seed     int64
		m        int
		n        int64
		heavy    map[int64]int
		chunk    int
		giant    bool
	}{
		{"small", HyperCube(), 102, 120, 1 << 12, map[int64]int{5: 40}, 7, false},
		{"giant", HyperCube(), 202, 4000, 1 << 16, map[int64]int{9: 1500}, 32, true},
		{"giant-skewed-star", SkewedGeneric(), 202, 4000, 1 << 16, map[int64]int{9: 1500}, 32, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.giant && testing.Short() {
				t.Skip("materializes a 54 MB output")
			}
			q := Star(2)
			db := func() *Database {
				return SkewedStarDatabase(rand.New(rand.NewSource(tc.seed)), 2, tc.m, tc.n, tc.heavy)
			}
			base := []RunOption{WithStrategy(tc.strategy), WithServers(16), WithSeed(7)}

			want, err := Run(q, db(), base...)
			if err != nil {
				t.Fatal(err)
			}
			if want.Output == nil || want.Output.NumTuples() == 0 {
				t.Fatal("workload produced no output; sink test needs rows")
			}

			barrierSink := &DigestSink{}
			repA, err := Run(q, db(), append(base, WithOutputSink(barrierSink))...)
			if err != nil {
				t.Fatal(err)
			}
			streamSink := &DigestSink{}
			repB, err := Run(q, db(), append(base,
				WithOutputSink(streamSink), WithStreaming(true), withStreamChunk(tc.chunk))...)
			if err != nil {
				t.Fatal(err)
			}

			if repA.Output != nil || repB.Output != nil {
				t.Fatalf("sink runs materialized output: barrier=%t streaming=%t", repA.Output != nil, repB.Output != nil)
			}
			if fa, fb := repA.Fingerprint(), repB.Fingerprint(); fa != fb {
				t.Errorf("sink-run fingerprints diverged\n got %s\nwant %s", fb, fa)
			}
			if repA.TotalBits != want.TotalBits || repB.TotalBits != want.TotalBits {
				t.Errorf("sink changed accounting: barrier-sink=%v streaming-sink=%v materialized=%v",
					repA.TotalBits, repB.TotalBits, want.TotalBits)
			}
			if a, b := barrierSink.Tuples(), streamSink.Tuples(); a != want.Output.NumTuples() || b != a {
				t.Errorf("sinks saw %d (barrier) and %d (streaming) rows, materialized output has %d", a, b, want.Output.NumTuples())
			}
			if da, dbg := barrierSink.Digest(), streamSink.Digest(); da != dbg {
				t.Errorf("sink digests diverged between engine modes: %x vs %x", da, dbg)
			}
			if tc.giant {
				outputBytes := int64(want.Output.NumTuples()) * int64(want.Output.Arity) * 8
				if repB.PeakBufferedBytes >= outputBytes/10 {
					t.Errorf("streamed sink run buffered %d B at peak; budget is a tenth of the %d B the barrier run materializes",
						repB.PeakBufferedBytes, outputBytes)
				}
			}

			reconcileSink(t, streamSink, want.Output)
		})
	}
}

// reconcileSink slices a materialized output by the sink's per-server row
// counts (ascending server order, Concat's stacking order) and refolds each
// slice: the rows must add up and every per-server digest must match the
// streamed one.
func reconcileSink(t *testing.T, sink *DigestSink, want *Relation) {
	t.Helper()
	per := sink.PerServer()
	vals := want.Vals()
	arity := want.Arity
	total := 0
	for _, sd := range per {
		total += sd.Rows
	}
	if total != want.NumTuples() {
		t.Fatalf("per-server rows sum to %d, materialized output has %d", total, want.NumTuples())
	}
	off := 0
	for _, sd := range per {
		ref := &DigestSink{}
		ref.Chunk(sd.Server, arity, vals[off*arity:(off+sd.Rows)*arity])
		if got := ref.PerServer()[0].Digest; got != sd.Digest {
			t.Errorf("server %d: streamed digest %x != materialized slice digest %x", sd.Server, sd.Digest, got)
		}
		off += sd.Rows
	}
}
