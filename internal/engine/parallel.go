package engine

import (
	"runtime"
	"sort"
	"sync"

	"mpcquery/internal/data"
)

// ParallelFor runs f(i) for i in [0,n) on up to GOMAXPROCS goroutines and
// waits for completion. It is the computation-phase helper for work outside
// a communication round (e.g. final local joins). Panics in f propagate to
// the caller.
func ParallelFor(n int, f func(i int)) {
	ParallelForWorkers(n, func(i, _ int) { f(i) })
}

// ParallelForWorkers is ParallelFor with the executing worker's id passed
// alongside each item: f(i, w) runs with 0 ≤ w < min(GOMAXPROCS, n), and
// items handled by the same w run sequentially on one goroutine. The worker
// id is the hook for per-worker reusable state — a computation phase keeps
// one localjoin.Scratch per worker and reuses its arenas across all the
// servers that worker evaluates, the same way the engine reuses inbox
// arenas across rounds. Panics in f propagate to the caller.
func ParallelForWorkers(n int, f func(i, worker int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i, 0)
		}
		return
	}
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Recover per item so a panicking iteration does not stop this
			// worker from draining the channel (which would deadlock the
			// sender).
			for i := range next {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicOnce.Do(func() { panicked = r })
						}
					}()
					f(i, w)
				}()
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if panicked != nil {
		//lint:allow panicdiscipline re-panic of the captured worker panic, already classified at its original site
		panic(panicked)
	}
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
	const span = 1 << 16 // values per work item: 512 KiB, far above the hand-off cost
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
