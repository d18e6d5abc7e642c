package mpcquery

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"mpcquery/internal/localjoin"
	"mpcquery/internal/transport"
)

// goldenFingerprint returns the pinned Report.Fingerprint() of a golden case.
func goldenFingerprint(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	fp, _, _ := strings.Cut(string(raw), "\n")
	return fp
}

// inPlaceCounter counts the fragments servers presented from the very memory
// an earlier server of the same subcube presented: tuples that were landed
// once and are read in place, not copied per server.
type inPlaceCounter struct {
	mu      sync.Mutex
	first   map[fragmentKey]*int64
	inPlace int
}

func watchInPlace(t *testing.T) *inPlaceCounter {
	c := &inPlaceCounter{first: make(map[fragmentKey]*int64)}
	localjoin.ObserveFragmentsForTest(func(cache *localjoin.IndexCache, _, _, atom int, id uint64, vals []int64) {
		if len(vals) == 0 {
			return
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		k := fragmentKey{cache, atom, id}
		if at, seen := c.first[k]; !seen {
			c.first[k] = &vals[0]
		} else if at == &vals[0] {
			c.inPlace++
		}
	})
	t.Cleanup(func() { localjoin.ObserveFragmentsForTest(nil) })
	return c
}

// TestViewLifetimeGivesGoldenFingerprints runs the golden workloads whose
// computation phases read inbox arenas in place while arenas are being
// recycled around them — three rounds of ChainPlan on pooled clusters, a
// HyperCube join followed by its aggregate shuffle on the same cluster,
// pipelined streaming with and without a sink, two ranks over loopback TCP —
// with the kernel's fetch check on (TestMain), and holds each to the pinned
// fingerprint: a view that outlived its arena, or aliased another cluster's,
// would change an output or trip the check.
func TestViewLifetimeGivesGoldenFingerprints(t *testing.T) {
	scenarios := make(map[string]distScenario)
	for _, sc := range distScenarios() {
		scenarios[sc.name] = sc
	}
	for _, c := range []struct {
		name, golden string
		extra        []RunOption
		inPlace      bool // the barrier in-process HyperCube grids replicate: views must occur
	}{
		{"chain-plan", "chain-plan", nil, false},
		{"chain-plan/streamed", "chain-plan", []RunOption{WithStreaming(true), withStreamChunk(3)}, false},
		{"chain-plan-agg-count", "chain-plan-agg-count", nil, false},
		{"hypercube", "hypercube", nil, true},
		{"hypercube/streamed", "hypercube", []RunOption{WithStreaming(true), withStreamChunk(3)}, false},
		{"hypercube-agg-count", "hypercube-agg-count", nil, false},
		{"hypercube-shares", "hypercube-shares", nil, true},
		{"skewed-triangle", "skewed-triangle", nil, true},
		{"skewed-generic", "skewed-generic", nil, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			seen := watchInPlace(t)
			for i := 0; i < 3; i++ { // again on the arenas the last run pooled
				rep, err := scenarios[c.golden].run(c.extra...)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := rep.Fingerprint(), goldenFingerprint(t, c.golden); got != want {
					t.Fatalf("run %d: fingerprint diverged from the golden file\n got %s\nwant %s", i, got, want)
				}
			}
			if c.inPlace && seen.inPlace == 0 {
				t.Error("no server read a replicated fragment in place: the run did not exercise views")
			}
		})
	}

	t.Run("hypercube/sink", func(t *testing.T) {
		want, err := scenarios["hypercube"].run()
		if err != nil {
			t.Fatal(err)
		}
		barrier, streamed := &DigestSink{}, &DigestSink{}
		a, err := scenarios["hypercube"].run(WithOutputSink(barrier))
		if err != nil {
			t.Fatal(err)
		}
		b, err := scenarios["hypercube"].run(WithOutputSink(streamed), WithStreaming(true), withStreamChunk(3))
		if err != nil {
			t.Fatal(err)
		}
		if a.Fingerprint() != b.Fingerprint() || barrier.Digest() != streamed.Digest() {
			t.Errorf("sink runs diverged between barrier and streaming: %s vs %s", a.Fingerprint(), b.Fingerprint())
		}
		if barrier.Tuples() != want.Output.NumTuples() || a.TotalBits != want.TotalBits {
			t.Errorf("sink run saw %d rows for %v bits, the materialized run %d for %v",
				barrier.Tuples(), a.TotalBits, want.Output.NumTuples(), want.TotalBits)
		}
	})

	t.Run("hypercube/two-rank-loopback", func(t *testing.T) {
		const ranks = 2
		addrs, err := transport.FreeLoopbackAddrs(ranks)
		if err != nil {
			t.Fatal(err)
		}
		var (
			wg   sync.WaitGroup
			fps  [ranks]string
			errs [ranks]error
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
				rep, err := scenarios["hypercube"].run(WithRuntime(rt))
				if err != nil {
					errs[r] = err
					return
				}
				fps[r] = rep.Fingerprint()
			}(r)
		}
		wg.Wait()
		for r := 0; r < ranks; r++ {
			if errs[r] != nil {
				t.Fatalf("rank %d: %v", r, errs[r])
			}
			if want := goldenFingerprint(t, "hypercube"); fps[r] != want {
				t.Errorf("rank %d fingerprint diverged from the golden file\n got %s\nwant %s", r, fps[r], want)
			}
		}
	})
}

// TestViewLifetimeReportOutputOutlivesArenas: a computation phase's rows are
// written into pooled per-worker output arenas, and Report.Output must not
// be one of them. Reports of several golden workloads are kept while the
// same workloads run again on the arenas their runs pooled; every kept
// Output still holds the rows it held when its run returned, and still
// fingerprints to the golden file.
func TestViewLifetimeReportOutputOutlivesArenas(t *testing.T) {
	scenarios := make(map[string]distScenario)
	for _, sc := range distScenarios() {
		scenarios[sc.name] = sc
	}
	names := []string{"hypercube-shares", "skewed-star-sampled", "skewed-triangle", "chain-plan", "selfjoin"}
	kept := make([]*Report, len(names))
	rows := make([][]int64, len(names))
	for i, name := range names {
		rep, err := scenarios[name].run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Output.NumTuples() == 0 {
			t.Fatalf("%s: empty output, nothing to hold", name)
		}
		kept[i], rows[i] = rep, slices.Clone(rep.Output.Vals())
	}
	for round := 0; round < 3; round++ {
		for _, name := range names {
			if _, err := scenarios[name].run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, name := range names {
		if !slices.Equal(kept[i].Output.Vals(), rows[i]) {
			t.Errorf("%s: Report.Output changed after later runs reused the pooled arenas", name)
		}
		if got, want := kept[i].Fingerprint(), goldenFingerprint(t, name); got != want {
			t.Errorf("%s: kept report's fingerprint diverged from the golden file\n got %s\nwant %s", name, got, want)
		}
	}
}
