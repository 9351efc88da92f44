// Package dispatch is the shared bounded fan-out engine of the
// concurrent hot paths. It was carved out of internal/core so that
// leaf layers — the erasure data plane's stripe-parallel coder, the
// service store's bulk repair — can dispatch through the same engine
// without importing the protocol (core imports erasure; erasure
// importing core back would cycle).
//
// Every short-lived goroutine of the RPC path starts through Go, on a
// warm worker: a goroutine that outlives the task it ran and parks for
// the next one, its stack already grown to what the path to a socket
// needs, so an RPC pays neither a goroutine start nor a stack copy
// (docs/PERFORMANCE.md §13).
package dispatch

import (
	"context"
	"sync/atomic"
)

// maxIdle bounds the workers parked between tasks. A worker that
// finishes a task while maxIdle others are parked exits instead. The
// bound is a count, never a timeout: an idle timer would arm on every
// RPC's path (docs/PERFORMANCE.md §6).
const maxIdle = 64

// jobs hands a task to a parked worker. It is unbuffered, so a send
// succeeds only when some worker is waiting to receive it.
var jobs = make(chan func())

// parked counts the workers between tasks, at most maxIdle.
var parked atomic.Int32

// Go runs f on its own goroutine: a parked worker when one is waiting,
// a new worker otherwise. Only tasks that end on their own belong here
// — an RPC, a hedged attempt, a stripe read; a goroutine that lives as
// long as a connection or a monitor starts with a plain go statement.
func Go(f func()) {
	select {
	case jobs <- f:
	default:
		go work(f)
	}
}

// work runs f, then parks for the next task unless maxIdle workers
// already wait.
func work(f func()) {
	for {
		f()
		// Drop the finished task before parking: a parked worker must
		// not keep its last closure, and the buffers that closure holds,
		// reachable.
		f = nil
		if parked.Add(1) > maxIdle {
			parked.Add(-1)
			return
		}
		f = <-jobs
		parked.Add(-1)
	}
}

// Parked reports how many workers are parked between tasks. A
// goroutine-leak assertion subtracts it from runtime.NumGoroutine: a
// parked worker runs nothing and holds no task.
func Parked() int { return int(parked.Load()) }

// outcome is one settled task, delivered to the fan-out collector.
type outcome[T any] struct {
	idx int
	val T
	err error
}

// Fanout issues calls 0..n-1 concurrently, keeping at most limit in
// flight (limit <= 0 issues all at once), and reports every call's
// final outcome to observe in completion order. observe runs in the
// collector goroutine only, so it may mutate shared state without
// locking. Returning false from observe stops the operation early:
// outstanding calls are cancelled (and calls not yet issued are settled
// immediately with the cancellation error, without running).
//
// Fanout returns only after all n outcomes have been observed. observe
// keeps being invoked for late-settling calls after an early stop —
// its return value is simply ignored from then on — so callers that
// track side effects (the write path's applied-update log) see every
// call that actually took effect, even ones that raced the
// cancellation.
func Fanout[T any](ctx context.Context, limit, n int, call func(context.Context, int) (T, error), observe func(idx int, val T, err error) bool) {
	if n <= 0 {
		return
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if limit <= 0 || limit > n {
		limit = n
	}
	// min(limit, n) workers claim indices from a shared counter, so a
	// bounded sweep over thousands of tasks costs `limit` goroutines,
	// not n. After an early stop, workers keep claiming indices but
	// settle them with the cancellation error without running them.
	results := make(chan outcome[T], n)
	var next atomic.Int64
	drain := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := cctx.Err(); err != nil {
				var zero T
				results <- outcome[T]{idx: i, val: zero, err: err}
				continue
			}
			v, err := call(cctx, i)
			results <- outcome[T]{idx: i, val: v, err: err}
		}
	}
	for w := 0; w < limit; w++ {
		Go(drain)
	}
	stopped := false
	for done := 0; done < n; done++ {
		r := <-results
		if !observe(r.idx, r.val, r.err) && !stopped {
			stopped = true
			cancel()
		}
	}
}
