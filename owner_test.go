package mpcquery

import (
	"bytes"
	"encoding/json"
	"slices"
	"sort"
	"sync"
	"testing"

	"mpcquery/internal/transport"
)

// onRanks runs one call of run per rank of a fresh TCP-loopback group of the
// given size, the ranks concurrently, and returns each rank's Report. A rank
// that cannot dial or run fails the test.
func onRanks(t *testing.T, ranks int, run func(r int, rt *DistributedRuntime) (*Report, error)) []*Report {
	t.Helper()
	addrs, err := transport.FreeLoopbackAddrs(ranks)
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]*Report, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt, err := DialRuntime(r, addrs)
			if err != nil {
				errs[r] = err
				return
			}
			defer rt.Close()
			reps[r], errs[r] = run(r, rt)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return reps
}

// serverSpan names one model server of one cluster of a run: the Chrome
// export's process (cluster) and thread (server + 1).
type serverSpan struct{ cluster, tid int }

// evaluatedServers returns the servers a traced run evaluated: those with an
// emit or compute span of their own in the Chrome export.
func evaluatedServers(t *testing.T, tr *Trace) map[serverSpan]bool {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name, Cat, Ph string
			Pid, Tid      int
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	got := map[serverSpan]bool{}
	for _, e := range file.TraceEvents {
		if e.Cat == "server" && e.Ph == "X" && (e.Name == "emit" || e.Name == "compute") {
			got[serverSpan{e.Pid, e.Tid}] = true
		}
	}
	return got
}

// TestEachServerEvaluatedOnOneRank: under a 3-rank runtime every model
// server's round functions and computation phases run on exactly one rank,
// for every strategy family. The ranks' per-server emit and compute spans
// are disjoint and together cover exactly the servers the in-process run
// evaluated. With fewer servers than ranks, a rank that owns none still
// returns the in-process fingerprint.
func TestEachServerEvaluatedOnOneRank(t *testing.T) {
	const ranks = 3
	for _, sc := range distScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			tr := NewTrace()
			if _, err := sc.run(WithTrace(tr)); err != nil {
				t.Fatal(err)
			}
			want := evaluatedServers(t, tr)
			if len(want) == 0 {
				t.Fatal("the in-process trace shows no evaluated server")
			}
			traces := make([]*Trace, ranks)
			onRanks(t, ranks, func(r int, rt *DistributedRuntime) (*Report, error) {
				traces[r] = NewTrace()
				return sc.run(WithRuntime(rt), WithTrace(traces[r]))
			})
			union := map[serverSpan]bool{}
			for r, tr := range traces {
				for sp := range evaluatedServers(t, tr) {
					if union[sp] {
						t.Errorf("rank %d evaluated server %d of cluster %d, which another rank evaluated too", r, sp.tid-1, sp.cluster)
					}
					union[sp] = true
				}
			}
			if len(union) != len(want) {
				t.Errorf("the ranks evaluated %d servers, the in-process run %d", len(union), len(want))
			}
			for sp := range want {
				if !union[sp] {
					t.Errorf("no rank evaluated server %d of cluster %d", sp.tid-1, sp.cluster)
				}
			}
		})
	}
	fewer := map[string]bool{"hypercube": true, "skewed-star-sampled": true, "chain-plan": true, "hypercube-agg-count": true}
	for _, sc := range distScenarios() {
		if !fewer[sc.name] {
			continue
		}
		t.Run(sc.name+"/2-servers", func(t *testing.T) {
			want, err := sc.run(WithServers(2))
			if err != nil {
				t.Fatal(err)
			}
			reps := onRanks(t, ranks, func(_ int, rt *DistributedRuntime) (*Report, error) {
				return sc.run(WithServers(2), WithRuntime(rt))
			})
			for r, rep := range reps {
				if rep.Fingerprint() != want.Fingerprint() {
					t.Errorf("rank %d fingerprint diverged from in-process run\n got %s\nwant %s", r, rep.Fingerprint(), want.Fingerprint())
				}
			}
		})
	}
}

// TestOutputSinkUnderRuntime pins the sink's meaning under a runtime: each
// rank's sink receives the output chunks of the servers that rank owns, and
// nothing is gathered. The ranks' row counts add up to the in-process
// sink's, and their per-server digests together are the in-process sink's,
// which reconcile with the materialized output.
func TestOutputSinkUnderRuntime(t *testing.T) {
	const ranks = 3
	for _, sc := range distScenarios() {
		if sc.name != "hypercube" && sc.name != "skewed-star" {
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			want, err := sc.run()
			if err != nil {
				t.Fatal(err)
			}
			inproc := &DigestSink{}
			if _, err := sc.run(WithOutputSink(inproc)); err != nil {
				t.Fatal(err)
			}
			reconcileSink(t, inproc, want.Output)

			sinks := make([]*DigestSink, ranks)
			reps := onRanks(t, ranks, func(r int, rt *DistributedRuntime) (*Report, error) {
				sinks[r] = &DigestSink{}
				return sc.run(WithRuntime(rt), WithOutputSink(sinks[r]))
			})
			var per []ServerDigest
			rows := 0
			for r, sink := range sinks {
				if reps[r].Output != nil {
					t.Errorf("rank %d materialized %d rows next to its sink", r, reps[r].Output.NumTuples())
				}
				rows += sink.Tuples()
				per = append(per, sink.PerServer()...)
			}
			if rows != inproc.Tuples() {
				t.Errorf("the ranks' sinks saw %d rows, the in-process sink %d", rows, inproc.Tuples())
			}
			sort.Slice(per, func(i, j int) bool { return per[i].Server < per[j].Server })
			if !slices.Equal(per, inproc.PerServer()) {
				t.Errorf("the ranks' per-server digests\n%v\ndiffer from the in-process sink's\n%v", per, inproc.PerServer())
			}
		})
	}
}
