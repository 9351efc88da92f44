package core

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"trapquorum/internal/clock"
	"trapquorum/internal/dispatch"
)

// This file is the concurrent dispatch engine shared by the protocol's
// hot paths. All node RPCs of one quorum operation are issued through
// Fanout, the protocol's front door to internal/dispatch (which leaf
// layers such as the erasure coder share without an import cycle).
// Read-only RPCs can additionally be hedged — re-issued once after a
// configurable delay so one slow node does not drag the whole
// operation to its tail latency — or, for a stripe read's data chunks,
// abandoned rather than cancelled.

// Fanout issues calls 0..n-1 concurrently. See dispatch.Fanout for the
// contract: bounded in-flight RPCs, completion-order observation, early
// termination ("first-k") on observe returning false, and
// settle-before-return — an RPC that settles with a context error has
// left the node unchanged, the property the write path's rollback
// bookkeeping depends on.
func Fanout[T any](ctx context.Context, limit, n int, call func(context.Context, int) (T, error), observe func(idx int, val T, err error) bool) {
	dispatch.Fanout(ctx, limit, n, call, observe)
}

// HedgeConfig enables tail-latency hedging of read-path RPCs: a
// version probe or chunk read that has not settled after the hedge
// delay is re-issued once, and the first result wins. Hedging is
// restricted to read-only RPCs — duplicating a conditional update
// could misreport a version conflict — and is safe for any backend
// honouring the client contract, because both attempts are idempotent
// and the loser is cancelled.
//
// The delay is either fixed (Delay) or adaptive (Quantile): with
// Quantile > 0 the engine tracks a sliding window of observed
// read-RPC latencies and hedges after that quantile of the window,
// never earlier than Delay. The zero value disables hedging.
type HedgeConfig struct {
	// Delay is the fixed hedge delay, and the floor under the adaptive
	// delay when Quantile is also set.
	Delay time.Duration
	// Quantile, when in (0, 1), hedges after the q-quantile of
	// recently observed read-RPC latencies (e.g. 0.95: only the
	// slowest ~5% of RPCs are hedged). Until enough samples exist,
	// Delay alone applies.
	Quantile float64
}

// enabled reports whether the configuration turns hedging on.
func (h HedgeConfig) enabled() bool { return h.Delay > 0 || h.Quantile > 0 }

// hedgeWindow is the sliding-window size of the adaptive delay
// estimator; hedgeMinSamples gates the estimate until the window has
// seen enough RPCs to be meaningful.
const (
	hedgeWindow     = 128
	hedgeMinSamples = 16
	hedgeRecompute  = 16
)

// hedger holds the hedging policy plus the latency window the adaptive
// delay is estimated from. record and delay are called from collector
// and worker goroutines concurrently; the window is guarded by a
// spin-free design: samples land in a fixed ring under an atomic
// cursor and the quantile is recomputed every hedgeRecompute records.
type hedger struct {
	cfg    HedgeConfig
	hedges *atomic.Int64 // protocol-level hedged-RPC counter

	cursor atomic.Int64 // total samples recorded
	ring   [hedgeWindow]atomic.Int64
	cached atomic.Int64 // current adaptive delay in nanoseconds
}

// newHedger builds a hedger, or returns nil when the config disables
// hedging (a nil hedger makes hedged() a plain call).
func newHedger(cfg HedgeConfig, hedges *atomic.Int64) *hedger {
	if !cfg.enabled() {
		return nil
	}
	return &hedger{cfg: cfg, hedges: hedges}
}

// record feeds one observed RPC latency into the window and refreshes
// the cached quantile estimate periodically.
func (h *hedger) record(d time.Duration) {
	if h == nil || h.cfg.Quantile <= 0 {
		return
	}
	n := h.cursor.Add(1)
	h.ring[(n-1)%hedgeWindow].Store(int64(d))
	if n < hedgeMinSamples || n%hedgeRecompute != 0 {
		return
	}
	size := int64(hedgeWindow)
	if n < size {
		size = n
	}
	samples := make([]int64, size)
	for i := range samples {
		samples[i] = h.ring[i].Load()
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := int(h.cfg.Quantile * float64(size-1))
	h.cached.Store(samples[idx])
}

// delay returns the hedge delay currently in force: the adaptive
// quantile estimate when available, floored by the fixed delay.
func (h *hedger) delay() time.Duration {
	d := h.cfg.Delay
	if q := time.Duration(h.cached.Load()); q > d {
		d = q
	}
	return d
}

// hedged performs a read-only call with tail-latency hedging: if the
// primary attempt has not settled after the hedger's current delay, an
// identical second attempt is issued and the first result to settle
// wins (the loser is cancelled with the wrapper's context and drains
// into a buffered channel). A nil hedger degrades to a plain call.
func hedged[T any](ctx context.Context, h *hedger, call func(context.Context) (T, error)) (T, error) {
	if h == nil {
		return call(ctx)
	}
	start := time.Now()
	delay := h.delay()
	if delay <= 0 {
		v, err := call(ctx)
		if err == nil {
			// Only successful settles feed the latency window: a
			// fail-fast error (node down) or a cancellation is not a
			// latency observation, and letting those near-zero samples
			// in would collapse the quantile estimate exactly when the
			// cluster degrades, over-hedging it.
			h.record(time.Since(start))
		}
		return v, err
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type res struct {
		v       T
		err     error
		elapsed time.Duration // this attempt's own latency
	}
	ch := make(chan res, 2)
	launch := func() {
		attemptStart := time.Now()
		dispatch.Go(func() {
			v, err := call(cctx)
			ch <- res{v, err, time.Since(attemptStart)}
		})
	}
	launch()
	fire := make(chan struct{}, 1)
	timer := clock.Real{}.AfterFunc(delay, func() { fire <- struct{}{} })
	defer timer.Stop()
	launched, settled := 1, 0
	var firstErr error
	for {
		select {
		case r := <-ch:
			settled++
			if r.err == nil {
				// Record the winning attempt's own latency — not the
				// wall time since the primary launch, which for a
				// winning hedge would fold the hedge delay in and
				// ratchet the adaptive quantile upward until hedging
				// dampens itself off.
				h.record(r.elapsed) // see above: successes only
				return r.v, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if settled == launched {
				// No attempt left in flight. (An error before the
				// timer fired never launches the hedge: the node
				// answered — re-asking it buys nothing.)
				var zero T
				return zero, firstErr
			}
			// The other attempt is still in flight: a fast failure
			// must not beat a slow success, or hedging would turn a
			// momentary blip (say, a crash racing an RPC already past
			// its delay window) into a lost shard. Keep waiting.
		case <-fire:
			if launched == 1 && settled == 0 {
				launched++
				if h.hedges != nil {
					h.hedges.Add(1)
				}
				launch()
			}
		}
	}
}

// abandonedReadLimit bounds an abandoned call whose caller set no
// deadline: far past a transport's attempt timeout and retries.
const abandonedReadLimit = 10 * time.Second

// abandonable performs a read-only call the caller may stop waiting
// for: call runs in its own goroutine, and abandonable returns ctx's
// error as soon as ctx ends. The call keeps ctx's values and deadline
// (abandonedReadLimit without one) but not its cancellation: callers
// cancel as soon as an operation returns, and cancelling an abandoned
// call would hide a stalled node from its transport's attempt timeout
// and breaker.
func abandonable[T any](ctx context.Context, call func(context.Context) (T, error)) (T, error) {
	type res struct {
		v   T
		err error
	}
	ch := make(chan res, 1)
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(abandonedReadLimit)
	}
	dispatch.Go(func() {
		run, cancel := context.WithDeadline(context.WithoutCancel(ctx), deadline)
		defer cancel()
		v, err := call(run)
		ch <- res{v, err}
	})
	select {
	case r := <-ch:
		return r.v, r.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// opLimit is the per-operation in-flight RPC bound: the configured
// concurrency, or unbounded (contact every node of the operation at
// once) when unset.
func (s *System) opLimit() int { return s.opts.Concurrency }

// DefaultBulkLimit bounds fan-out across stripes or shards in
// maintenance sweeps (RepairStripe rounds, RepairSweep), where "everything at once" could mean
// thousands of concurrent quorum operations: when no concurrency is
// configured, sweeps keep this many repairs in flight so rebuild
// traffic does not starve foreground I/O.
const DefaultBulkLimit = 16

// BulkLimit resolves the sweep bound for the given configured
// concurrency: the configuration wins, DefaultBulkLimit otherwise.
// Shared with the service layer so the policy lives in one place.
func BulkLimit(concurrency int) int {
	if concurrency > 0 {
		return concurrency
	}
	return DefaultBulkLimit
}

func (s *System) bulkLimit() int { return BulkLimit(s.opts.Concurrency) }
