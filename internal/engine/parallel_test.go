package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpcquery/internal/data"
	"mpcquery/internal/obs"
)

func TestParallelForRunsAll(t *testing.T) {
	var sum int64
	ParallelFor(100, func(i int) { atomic.AddInt64(&sum, int64(i)) })
	if sum != 4950 {
		t.Fatalf("sum=%d want 4950", sum)
	}
}

func TestParallelForSmallN(t *testing.T) {
	hits := make([]bool, 1)
	ParallelFor(1, func(i int) { hits[i] = true })
	if !hits[0] {
		t.Error("n=1 not executed")
	}
	ParallelFor(0, func(i int) { t.Error("n=0 must not call f") })
}

func TestParallelForPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("panic should propagate to the caller")
		}
	}()
	ParallelFor(50, func(i int) {
		if i == 25 {
			panic("boom")
		}
	})
}

// atProcs runs f once at each GOMAXPROCS setting, restoring the original.
func atProcs(t *testing.T, f func(t *testing.T, procs int)) {
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) { f(t, procs) })
		runtime.GOMAXPROCS(prev)
	}
}

// TestParallelForWorkersIdsInRange pins the fan-out's contract: every index
// runs exactly once, and worker ids lie in [0, min(GOMAXPROCS, n)).
func TestParallelForWorkersIdsInRange(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		for _, n := range []int{0, 1, 2, procs, 1000} {
			seen := make([]int32, n)
			var bad atomic.Int32
			ParallelForWorkers(n, func(i, w int) {
				if w < 0 || w >= min(procs, n) {
					bad.Store(int32(w) + 1)
				}
				atomic.AddInt32(&seen[i], 1)
			})
			if w := bad.Load(); w != 0 {
				t.Errorf("n=%d: worker id %d out of [0,%d)", n, w-1, min(procs, n))
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d: item %d executed %d times", n, i, c)
				}
			}
		}
	})
}

// TestParallelForWorkersSequentialPerWorker pins the property per-worker
// scratch reuse relies on: items assigned to one worker id never run
// concurrently, so unsynchronized per-worker state is safe.
func TestParallelForWorkersSequentialPerWorker(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		busy := make([]atomic.Bool, procs)
		ParallelForWorkers(500, func(i, w int) {
			if !busy[w].CompareAndSwap(false, true) {
				t.Errorf("worker %d entered concurrently", w)
			}
			busy[w].Store(false)
		})
	})
}

// TestParallelForPanicWaitsForEveryExecutor raises a panic in an item run by
// the calling goroutine (worker 0) and in one run by a spawned goroutine
// (the last worker). Either must reach the caller, and only once no item is
// running any more: the other executors' items are still sleeping when the
// panic is raised. The first items are held at a barrier until every
// executor has claimed one, so each worker id is sure to run an item.
func TestParallelForPanicWaitsForEveryExecutor(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		culprits := []int{0}
		if procs > 1 {
			culprits = append(culprits, procs-1)
		}
		for _, culprit := range culprits {
			var arrived sync.WaitGroup
			arrived.Add(procs)
			var running, done atomic.Int32
			const n = 64
			func() {
				defer func() {
					if r := recover(); r != "boom" {
						t.Errorf("worker %d's panic: recovered %v, want boom", culprit, r)
					}
				}()
				ParallelForWorkers(n, func(i, w int) {
					running.Add(1)
					defer running.Add(-1)
					if i < procs {
						arrived.Done()
						arrived.Wait()
					}
					if w == culprit && i < procs {
						panic("boom")
					}
					time.Sleep(100 * time.Microsecond)
					done.Add(1)
				})
			}()
			if r := running.Load(); r != 0 {
				t.Errorf("worker %d's panic reached the caller with %d items running", culprit, r)
			}
			if d := done.Load(); d != n-1 {
				t.Errorf("worker %d's panic: %d of the other %d items completed", culprit, d, n-1)
			}
		}
	})
}

// TestParallelForNested runs a ParallelFor inside every item of another:
// the inner call's caller is itself an executor of the outer one.
func TestParallelForNested(t *testing.T) {
	atProcs(t, func(t *testing.T, procs int) {
		var sum atomic.Int64
		ParallelFor(16, func(i int) {
			ParallelFor(100, func(j int) { sum.Add(int64(i*100 + j)) })
		})
		if got, want := sum.Load(), int64(1600*1599/2); got != want {
			t.Errorf("nested sum %d, want %d", got, want)
		}
	})
}

// TestClusterTraceTimesPhases: a traced cluster times every round's compute
// and deliver phases, barrier and pipelined, and every compute phase, in
// total and once per owned server; an untraced cluster records nothing.
func TestClusterTraceTimesPhases(t *testing.T) {
	const p = 4
	send := func(s int, inbox *Inbox, emit *Emitter) {
		inbox.Each(func(kind int, tu []int64) { emit.EmitTuple((s+1)%p, kind, tu) })
	}
	run := func(c *Cluster) {
		c.Seed(0, 0, []int64{1, 2})
		c.Round("barrier", send)
		c.SetStreamChunk(1)
		c.Round("pipelined", send)
		c.Compute(func(int, *Inbox, int) {})
	}
	tr := obs.NewTrace()
	c := NewClusterEnv(Env{Trace: tr}, p, 8)
	defer c.Release()
	run(c)
	rounds := c.Trace().Rounds()
	if len(rounds) != 2 {
		t.Fatalf("traced %d rounds, want 2", len(rounds))
	}
	for _, ro := range rounds {
		if ro.ComputeSeconds <= 0 || ro.DeliverSeconds <= 0 {
			t.Errorf("round %q: compute %g s, deliver %g s", ro.Name, ro.ComputeSeconds, ro.DeliverSeconds)
		}
		if len(ro.ServerComputeSeconds) != p || len(ro.DestDeliverSeconds) != p {
			t.Fatalf("round %q: %d emit spans, %d deliver spans, want %d each",
				ro.Name, len(ro.ServerComputeSeconds), len(ro.DestDeliverSeconds), p)
		}
		for s := range p {
			if ro.ServerComputeSeconds[s] <= 0 || ro.DestDeliverSeconds[s] <= 0 {
				t.Errorf("round %q server %d: emit %g s, deliver %g s",
					ro.Name, s, ro.ServerComputeSeconds[s], ro.DestDeliverSeconds[s])
			}
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name, Cat string
			Dur       float64
			Tid       int
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	phases, servers := 0, map[int]bool{}
	for _, ev := range file.TraceEvents {
		if ev.Name != "compute" {
			continue
		}
		if ev.Dur <= 0 {
			t.Errorf("compute span %+v has no duration", ev)
		}
		if ev.Cat == "compute" {
			phases++
		} else {
			servers[ev.Tid-1] = true
		}
	}
	if phases != 1 || len(servers) != p {
		t.Errorf("compute phase: %d phase spans, spans on %d servers; want 1 and %d", phases, len(servers), p)
	}

	untraced := NewCluster(p, 8)
	defer untraced.Release()
	run(untraced)
	if untraced.Trace() != nil || untraced.Trace().Rounds() != nil {
		t.Error("an untraced cluster recorded rounds")
	}
}

// TestConcat holds Concat to a serial append: spans of the output are copied
// by different workers, so part boundaries inside a span, spans inside a
// part, empty and nil parts (size -1) and an empty whole must all land byte
// for byte in part order, with one worker and with more workers than the box
// has cores.
func TestConcat(t *testing.T) {
	part := func(tuples int, first int64) *data.Relation {
		r := data.NewRelation("part", 3)
		for i := 0; i < tuples; i++ {
			r.Append(first, int64(i), -first)
		}
		return r
	}
	const big = 100_000 // 300 000 values: several copy spans
	cases := map[string][]int{
		"no parts":             {},
		"empty parts":          {0, 0, 0},
		"one part":             {17},
		"fewer than workers":   {big, 5},
		"more than workers":    {3, 0, 2000, 1, 0, 0, 40_000, 7, 30_000, 0, 1},
		"huge among empty":     {0, 0, 0, 0, big, 0, 0, 0},
		"part ends on a span":  {1 << 16, 0, 1, big}, // 3·2¹⁶ values: exactly three spans
		"many tiny then large": append(make([]int, 300), big),
		"nil parts":            {-1, 3, -1, -1, big, -1},
	}
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for name, sizes := range cases {
			parts := make([]*data.Relation, len(sizes))
			want := data.NewRelation("out", 3)
			for i, n := range sizes {
				if n < 0 {
					continue
				}
				parts[i] = part(n, int64(i+1))
				want.AppendVals(parts[i].Vals())
			}
			got := Concat("out", 3, parts)
			if got.Name != "out" || got.Arity != 3 || !slices.Equal(got.Vals(), want.Vals()) {
				t.Errorf("GOMAXPROCS=%d, %s: Concat differs from the serial append (%d vs %d tuples)",
					procs, name, got.NumTuples(), want.NumTuples())
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}
