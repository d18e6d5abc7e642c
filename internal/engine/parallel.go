package engine

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"mpcquery/internal/data"
)

// ParallelFor runs f(i) for i in [0,n) on up to GOMAXPROCS goroutines and
// waits for completion. It is the computation-phase helper for work outside
// a communication round (e.g. final local joins). Items are claimed one at a
// time from a shared atomic counter, and the calling goroutine is one of the
// executors. Panics in f propagate to the caller.
func ParallelFor(n int, f func(i int)) {
	ParallelForWorkers(n, func(i, _ int) { f(i) })
}

// ParallelForWorkers is ParallelFor with the executing worker's id passed
// alongside each item: f(i, w) runs with 0 ≤ w < min(GOMAXPROCS, n), and
// items handled by the same w run sequentially on one goroutine. The worker
// id is the hook for per-worker reusable state — a computation phase keeps
// one localjoin.Scratch per worker and reuses its arenas across all the
// servers that worker evaluates, the same way the engine reuses inbox
// arenas across rounds.
//
// The caller runs as worker 0 and min(GOMAXPROCS, n)-1 goroutines are
// spawned beside it; every executor claims its next item with one atomic
// add, so an item costs no hand-off. Every index runs exactly once. A panic
// in f is recovered per item, so its executor goes on claiming, and the
// first one is re-raised on the caller after every executor has stopped.
func ParallelForWorkers(n int, f func(i, worker int)) {
	fo := &fanOut{n: n, f: f}
	workers := min(runtime.GOMAXPROCS(0), n)
	fo.wg.Add(max(0, workers-1))
	for w := 1; w < workers; w++ {
		go fo.spawned(w)
	}
	fo.run(0)
	fo.wg.Wait()
	if fo.panicked != nil {
		//lint:allow panicdiscipline re-panic of the captured worker panic, already classified at its original site
		panic(fo.panicked)
	}
}

// fanOut is one ParallelForWorkers call's state, shared by its executors.
type fanOut struct {
	n         int
	f         func(i, worker int)
	next      atomic.Int64 // the next unclaimed item
	wg        sync.WaitGroup
	panicOnce sync.Once
	panicked  any // the first item panic, re-raised on the caller
}

func (fo *fanOut) spawned(w int) {
	defer fo.wg.Done()
	fo.run(w)
}

// run claims and runs items as worker w until none is left.
func (fo *fanOut) run(w int) {
	for i := int(fo.next.Add(1) - 1); i < fo.n; i = int(fo.next.Add(1) - 1) {
		fo.item(i, w)
	}
}

// item runs one item, recovering its panic so the executor goes on
// claiming.
func (fo *fanOut) item(i, w int) {
	defer func() {
		if r := recover(); r != nil {
			fo.panicOnce.Do(func() { fo.panicked = r })
		}
	}()
	fo.f(i, w)
}

// Concat returns one relation holding every part's tuples in part order —
// the per-server output union of a computation phase. Every part must have
// the given arity; a nil part is empty. The output is allocated once at its
// exact size and filled in fixed spans of values, each copied from the parts
// it overlaps, under ParallelFor: one huge part among empty ones is
// assembled by as many workers as an even spread.
func Concat(name string, arity int, parts []*data.Relation) *data.Relation {
	offs := make([]int, len(parts)+1) // part i lands at vals[offs[i]:offs[i+1]]
	for i, p := range parts {
		offs[i+1] = offs[i]
		if p != nil {
			offs[i+1] += len(p.Vals())
		}
	}
	total := offs[len(parts)]
	vals := make([]int64, total)
	const span = 1 << 16 // values per work item: 512 KiB, far above the cost of claiming one
	ParallelFor((total+span-1)/span, func(n int) {
		lo, hi := n*span, min((n+1)*span, total)
		// First part reaching past lo; empty parts in between are skipped.
		for i := sort.SearchInts(offs, lo+1) - 1; lo < hi; i++ {
			if offs[i+1] > lo {
				lo += copy(vals[lo:hi], parts[i].Vals()[lo-offs[i]:])
			}
		}
	})
	return data.FromVals(name, arity, vals)
}
