// Package service provides the concurrency substrate of the long-lived
// query service: a bounded worker pool with queue-depth admission control
// and load shedding, one keyed single-flight cache — for plan and
// statistics artifacts, and, keeping nothing, for coalescing duplicate
// requests — and aggregate service metrics (throughput, latency
// percentiles, communication totals).
//
// The package is deliberately generic — it knows nothing about queries,
// databases, or Reports. The mpcquery façade composes these pieces into the
// public Service API and decides what gets cached under which key.
package service

import (
	"errors"
	"sync"
)

// ErrOverloaded is returned when a task is refused admission because the
// pool's queue is full — the service sheds load instead of building an
// unbounded backlog (clients see the rejection immediately and can back
// off or retry).
var ErrOverloaded = errors.New("service: overloaded, queue full")

// ErrClosed is returned when a task is submitted after Close.
var ErrClosed = errors.New("service: closed")

// Pool is a fixed-size worker pool with a bounded submission queue. The two
// bounds are the service's admission control: Workers caps how many queries
// execute concurrently (each query already parallelizes internally across
// GOMAXPROCS, so a small worker count usually saturates the machine), and
// QueueDepth caps how many admitted queries may wait.
type Pool struct {
	tasks   chan func()
	wg      sync.WaitGroup
	mu      sync.Mutex
	closed  bool
	workers int
}

// NewPool starts a pool of workers goroutines behind a queue of queueDepth
// pending tasks. workers and queueDepth are clamped to at least 1 worker
// and a queue of at least the worker count (so admission never rejects a
// task that an idle worker could take immediately).
func NewPool(workers, queueDepth int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < workers {
		queueDepth = workers
	}
	p := &Pool{tasks: make(chan func(), queueDepth), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			for task := range p.tasks {
				runTask(task)
			}
		}()
	}
	return p
}

// runTask confines a panicking task to itself: the worker survives and the
// service keeps draining its queue. Tasks that need to observe their own
// panic (to unblock a waiting submitter) must install their own recover —
// this backstop only protects the pool.
func runTask(task func()) {
	defer func() { _ = recover() }()
	task()
}

// Workers returns the number of worker goroutines.
func (p *Pool) Workers() int { return p.workers }

// QueueDepth returns the queue capacity.
func (p *Pool) QueueDepth() int { return cap(p.tasks) }

// Queued returns the number of tasks currently waiting (racy snapshot, for
// metrics only).
func (p *Pool) Queued() int { return len(p.tasks) }

// Submit enqueues a task for execution. It never blocks: when the queue is
// full it returns ErrOverloaded, and after Close it returns ErrClosed.
func (p *Pool) Submit(task func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	select {
	case p.tasks <- task:
		return nil
	default:
		return ErrOverloaded
	}
}

// Close stops admission, waits for queued and running tasks to finish, and
// releases the workers. It is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	close(p.tasks)
	p.mu.Unlock()
	p.wg.Wait()
}
