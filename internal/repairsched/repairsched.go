// Package repairsched is the background repair orchestrator of the
// self-healing subsystem: it turns the health monitor's liveness
// transitions (internal/health) into bounded-concurrency repair work
// against the store's version-guarded repair path, and runs periodic
// anti-entropy scrubs so degradation the detector cannot see (wiped
// disks behind a live process, stale shards left by partitioned
// writes) is still found and healed.
//
// The orchestrator is deliberately throttled: repairs run on a small
// fixed worker pool and scrub passes pace themselves between stripes,
// so background reconvergence never starves foreground quorum
// traffic. Work is prioritised by redundancy lost — a chunk whose
// stripe has two failed placements is rebuilt before a chunk whose
// stripe lost only one — which minimises the window in which a
// further failure would make data unreadable.
//
// The package is store-agnostic: it plans and executes through the
// Target interface, implemented by the multi-stripe service layer
// (placement-aware) and by the low-level store's stripe table.
package repairsched

import (
	"container/heap"
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"trapquorum/internal/clock"
	"trapquorum/internal/health"
)

// Task names one chunk rebuild: stripe shard `Shard` of stripe
// `Stripe`, stored on cluster node `Node`, with a scheduling
// priority.
type Task struct {
	// Stripe is the stripe owning the chunk.
	Stripe uint64
	// Shard is the position within the stripe.
	Shard int
	// Node is the cluster node the chunk is placed on.
	Node int
	// Priority orders the repair queue: the number of placements the
	// stripe has currently lost (higher repairs first).
	Priority int
}

// Target is the store surface the orchestrator plans and repairs
// through. All methods must be safe for concurrent use.
type Target interface {
	// PlanNodeRepairs lists the repair tasks for every chunk placed
	// on the given cluster node, Priority filled with the redundancy
	// each chunk's stripe has lost under the down predicate.
	PlanNodeRepairs(node int, down func(int) bool) []Task
	// Repair rebuilds one chunk through the version-guarded repair
	// path. Repairing a chunk that is already fresh is an idempotent
	// no-op at the node.
	Repair(ctx context.Context, t Task) error
	// Stripes lists the live stripe ids for anti-entropy scrubbing.
	Stripes() []uint64
	// ScrubStripe audits one stripe read-only and returns the repair
	// tasks for its repairable degradation (stale shards, and missing
	// shards on nodes the down predicate reports up). Auditing a
	// stripe deleted since Stripes was called returns (nil, nil).
	ScrubStripe(ctx context.Context, stripe uint64, down func(int) bool) ([]Task, error)
}

// MigrationSource is the optional Target extension for online
// reconfiguration: a target that also exposes a placement migration
// gets a background pump goroutine driving it, paced like the scrub
// path so the drain never starves foreground traffic. The service
// layer's fleet implements it; the low-level store's stripe table does
// not (it has no placement to migrate).
type MigrationSource interface {
	// MigrationPending reports whether a migration has work left.
	MigrationPending() bool
	// MigrationStep performs one unit of migration work — moving one
	// object to the target placement, or completing the migration.
	// done=true means no migration is active (or it just completed);
	// an error means the step failed and should be retried later.
	MigrationStep(ctx context.Context) (done bool, err error)
}

// LostCount counts how many of a stripe's n placements the down
// predicate reports lost; nodeOf maps a shard index to the cluster
// node holding it. Targets use it to fill Task.Priority so both
// store flavours prioritise identically.
func LostCount(n int, nodeOf func(shard int) int, down func(int) bool) int {
	lost := 0
	for shard := 0; shard < n; shard++ {
		if down(nodeOf(shard)) {
			lost++
		}
	}
	return lost
}

// DegradationTasks converts one stripe's scrub classification into
// repair tasks under the standard repairable-degradation policy,
// shared by every Target implementation: stale shards are always
// repairable; corrupt shards (wrong bytes behind a live process —
// bit-rot, quarantined chunk files, disavowed content) likewise, with
// a priority bump because they actively poison reads; unreachable
// shards only when their node is not down (a missing chunk behind a
// live process); ahead shards (failed-write residue) are never queued
// — clearing residue is an operator decision.
func DegradationTasks(stripe uint64, n int, stale, unreachable, corrupt []int, nodeOf func(shard int) int, down func(int) bool) []Task {
	lost := LostCount(n, nodeOf, down)
	var tasks []Task
	add := func(shard, prio int) {
		tasks = append(tasks, Task{Stripe: stripe, Shard: shard, Node: nodeOf(shard), Priority: prio})
	}
	for _, shard := range stale {
		add(shard, lost)
	}
	for _, shard := range corrupt {
		if !down(nodeOf(shard)) {
			add(shard, lost+1)
		}
	}
	for _, shard := range unreachable {
		if !down(nodeOf(shard)) {
			add(shard, lost)
		}
	}
	return tasks
}

// Config parameterises an Orchestrator. Zero fields take the
// defaults documented per field.
type Config struct {
	// RepairConcurrency is the worker-pool size bounding in-flight
	// chunk repairs (default 2).
	RepairConcurrency int
	// RetryInterval is the pause before re-planning a node whose
	// repair plan had failures (default 2s).
	RetryInterval time.Duration
	// ScrubInterval is the pause between anti-entropy passes
	// (default 1m). Negative disables scrubbing.
	ScrubInterval time.Duration
	// ScrubJitter randomises each pause by ±Jitter·Interval so many
	// stores sharing a fleet do not scrub in lockstep (default 0.2).
	ScrubJitter float64
	// ScrubPace is the minimum gap between consecutive stripe audits
	// within a pass — the rate limit keeping scrub I/O off the
	// foreground path (default 2ms).
	ScrubPace time.Duration
	// Clock arms every pause and retry timer and seeds the jitter
	// source from its reading (nil: clock.Real).
	Clock clock.Clock
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.RepairConcurrency < 1 {
		c.RepairConcurrency = 2
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 2 * time.Second
	}
	if c.ScrubInterval == 0 {
		c.ScrubInterval = time.Minute
	}
	if c.ScrubJitter <= 0 {
		c.ScrubJitter = 0.2
	}
	if c.ScrubPace <= 0 {
		c.ScrubPace = 2 * time.Millisecond
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	return c
}

// Counters are the orchestrator's cumulative event counts. All
// fields are monotone and safe to read while the orchestrator runs.
type Counters struct {
	// Repairs counts chunk repairs that succeeded.
	Repairs atomic.Int64
	// RepairFailures counts chunk repairs that returned an error.
	RepairFailures atomic.Int64
	// PlansExecuted counts node repair plans run to completion
	// (successfully or not).
	PlansExecuted atomic.Int64
	// ScrubPasses counts completed anti-entropy passes.
	ScrubPasses atomic.Int64
	// ScrubStripes counts stripes audited across all passes.
	ScrubStripes atomic.Int64
	// ScrubDegraded counts repair tasks the scrubber found.
	ScrubDegraded atomic.Int64
	// ScrubErrors counts stripe audits that failed outright.
	ScrubErrors atomic.Int64
	// MigrationSteps counts successful migration pump steps;
	// MigrationFailures counts steps that errored and were retried.
	MigrationSteps    atomic.Int64
	MigrationFailures atomic.Int64
}

// CountersSnapshot is a plain-value copy of Counters.
type CountersSnapshot struct {
	// Repairs counts chunk repairs that succeeded.
	Repairs int64
	// RepairFailures counts chunk repairs that returned an error.
	RepairFailures int64
	// PlansExecuted counts node repair plans run to completion.
	PlansExecuted int64
	// ScrubPasses counts completed anti-entropy passes.
	ScrubPasses int64
	// ScrubStripes counts stripes audited across all passes.
	ScrubStripes int64
	// ScrubDegraded counts repair tasks the scrubber found.
	ScrubDegraded int64
	// ScrubErrors counts stripe audits that failed outright.
	ScrubErrors int64
	// MigrationSteps counts successful migration pump steps;
	// MigrationFailures counts steps that errored and were retried.
	MigrationSteps    int64
	MigrationFailures int64
}

// Status is a point-in-time view of the orchestrator's workload, for
// the public Health snapshot.
type Status struct {
	// Backlog is the number of repair tasks queued but not started.
	Backlog int
	// InFlight is the number of repairs currently executing.
	InFlight int
	// ScrubPasses counts completed anti-entropy passes.
	ScrubPasses int64
	// ScrubAudited is the number of stripes audited so far in the
	// in-progress pass (0 when no pass is running).
	ScrubAudited int
	// ScrubTotal is the stripe count of the in-progress pass (0 when
	// no pass is running).
	ScrubTotal int
	// ScrubDegraded counts repair tasks found by scrubbing, across
	// all passes.
	ScrubDegraded int64
}

// item is one queued task plus its origin: forNode >= 0 ties the
// task to a node repair plan (its completion is accounted against
// the plan), forNode == -1 marks scrub-found work. gen identifies
// which plan of the node issued the task, so a stale in-flight task
// surviving a Down-drop can never be accounted against a successor
// plan for the same node.
type item struct {
	Task
	forNode int
	gen     uint64
}

type itemKey struct {
	stripe  uint64
	shard   int
	forNode int
}

// taskHeap orders items by Priority descending, then stripe/shard
// ascending for determinism.
type taskHeap []item

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].Priority != h[j].Priority {
		return h[i].Priority > h[j].Priority
	}
	if h[i].Stripe != h[j].Stripe {
		return h[i].Stripe < h[j].Stripe
	}
	return h[i].Shard < h[j].Shard
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(item)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}
func (h *taskHeap) PushItem(it item) { heap.Push(h, it) }
func (h *taskHeap) PopItem() item    { return heap.Pop(h).(item) }

// nodeRepair tracks one node plan's outstanding tasks.
type nodeRepair struct {
	gen         uint64
	outstanding int
	failed      bool
}

// Orchestrator consumes the monitor's transitions and keeps the
// cluster converging back to full redundancy. Construct with New,
// then Start; Close stops all background goroutines.
type Orchestrator struct {
	target Target
	mon    *health.Monitor
	cfg    Config

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	queue    taskHeap
	queued   map[itemKey]bool
	inflight int
	plans    map[int]*nodeRepair
	planGen  uint64
	retries  map[int]clock.Timer
	scrub    struct {
		audited int
		total   int
	}
	jitter *rand.Rand
	closed bool

	counters Counters
	wg       sync.WaitGroup
	started  atomic.Bool
}

// New builds an orchestrator over the target, fed by the monitor's
// transition stream.
func New(target Target, mon *health.Monitor, cfg Config) *Orchestrator {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	o := &Orchestrator{
		target:  target,
		mon:     mon,
		cfg:     cfg,
		ctx:     ctx,
		cancel:  cancel,
		queued:  make(map[itemKey]bool),
		plans:   make(map[int]*nodeRepair),
		retries: make(map[int]clock.Timer),
		jitter:  rand.New(rand.NewSource(cfg.Clock.Now().UnixNano())),
	}
	o.cond = sync.NewCond(&o.mu)
	return o
}

// Start launches the transition consumer, the repair workers and the
// scrub loop. It must be called at most once.
func (o *Orchestrator) Start() {
	if o.started.Swap(true) {
		panic("repairsched: Orchestrator started twice")
	}
	o.wg.Add(1)
	go o.consumeTransitions()
	for i := 0; i < o.cfg.RepairConcurrency; i++ {
		o.wg.Add(1)
		go o.worker()
	}
	if o.cfg.ScrubInterval > 0 {
		o.wg.Add(1)
		go o.scrubLoop()
	}
	if ms, ok := o.target.(MigrationSource); ok {
		o.wg.Add(1)
		go o.migrationLoop(ms)
	}
}

// migrationLoop is the background pump for online reconfiguration:
// while the target has a migration pending, it drives one step at a
// time, pacing between objects (ScrubPace) so the drain stays off the
// foreground path; idle or after a failed step it backs off for
// RetryInterval. The pump makes an interrupted reconfiguration
// self-resuming: whatever re-queues work (StartReconfigure after a
// coordinator crash, a Put racing the cutover) is drained without any
// further coordinator involvement.
func (o *Orchestrator) migrationLoop(ms MigrationSource) {
	defer o.wg.Done()
	for {
		if !ms.MigrationPending() {
			if clock.Sleep(o.ctx, o.cfg.Clock, o.cfg.RetryInterval) != nil {
				return
			}
			continue
		}
		done, err := ms.MigrationStep(o.ctx)
		if o.ctx.Err() != nil {
			return
		}
		if err != nil {
			o.counters.MigrationFailures.Add(1)
			if clock.Sleep(o.ctx, o.cfg.Clock, o.cfg.RetryInterval) != nil {
				return
			}
			continue
		}
		if done {
			continue // re-check MigrationPending; idles on RetryInterval
		}
		o.counters.MigrationSteps.Add(1)
		if clock.Sleep(o.ctx, o.cfg.Clock, o.cfg.ScrubPace) != nil {
			return
		}
	}
}

// Close stops every background goroutine and waits for in-flight
// repairs to settle. Safe to call more than once.
func (o *Orchestrator) Close() {
	o.mu.Lock()
	if o.closed {
		o.mu.Unlock()
		return
	}
	o.closed = true
	for _, t := range o.retries {
		t.Stop()
	}
	o.cond.Broadcast()
	o.mu.Unlock()
	o.cancel()
	if o.started.Load() {
		o.wg.Wait()
	}
}

// Counters returns a snapshot of the cumulative event counts.
func (o *Orchestrator) Counters() CountersSnapshot {
	return CountersSnapshot{
		Repairs:           o.counters.Repairs.Load(),
		RepairFailures:    o.counters.RepairFailures.Load(),
		PlansExecuted:     o.counters.PlansExecuted.Load(),
		ScrubPasses:       o.counters.ScrubPasses.Load(),
		ScrubStripes:      o.counters.ScrubStripes.Load(),
		ScrubDegraded:     o.counters.ScrubDegraded.Load(),
		ScrubErrors:       o.counters.ScrubErrors.Load(),
		MigrationSteps:    o.counters.MigrationSteps.Load(),
		MigrationFailures: o.counters.MigrationFailures.Load(),
	}
}

// Status returns a point-in-time view of the workload.
func (o *Orchestrator) Status() Status {
	o.mu.Lock()
	defer o.mu.Unlock()
	return Status{
		Backlog:       len(o.queue),
		InFlight:      o.inflight,
		ScrubPasses:   o.counters.ScrubPasses.Load(),
		ScrubAudited:  o.scrub.audited,
		ScrubTotal:    o.scrub.total,
		ScrubDegraded: o.counters.ScrubDegraded.Load(),
	}
}

// down is the predicate planners use: a node counts as lost while it
// is Down or still Repairing (its chunks cannot serve as rebuild
// sources a plan should rely on).
func (o *Orchestrator) down(node int) bool {
	s := o.mon.NodeState(node)
	return s == health.Down || s == health.Repairing
}

// consumeTransitions reacts to the monitor's state machine.
func (o *Orchestrator) consumeTransitions() {
	defer o.wg.Done()
	for {
		select {
		case tr, ok := <-o.mon.Transitions():
			if !ok {
				return
			}
			switch tr.To {
			case health.Repairing:
				o.plan(tr.Node)
			case health.Corrupt:
				// Corruption pinned: rebuild everything placed on the
				// node. The monitor clears the pin only if no further
				// corruption is reported while the plan runs (and
				// stages a fresh Corrupt edge — landing back here —
				// when one is).
				o.plan(tr.Node)
			case health.Down:
				o.dropNode(tr.Node)
			}
		case <-o.ctx.Done():
			return
		}
	}
}

// plan builds and enqueues the repair plan for a node that came back.
func (o *Orchestrator) plan(node int) {
	tasks := o.target.PlanNodeRepairs(node, o.down)
	o.mu.Lock()
	if o.closed || o.plans[node] != nil {
		// Already closed, or another plan for this node is active (a
		// retry timer racing a Down→Repairing re-plan): the active
		// plan's own completion drives RepairDone/retry, and two
		// plans accounting the same queued tasks would double-count.
		o.mu.Unlock()
		return
	}
	if len(tasks) == 0 {
		// Nothing placed on the node: it is healed by definition.
		o.mu.Unlock()
		o.counters.PlansExecuted.Add(1)
		o.mon.RepairDone(node, true)
		return
	}
	o.planGen++
	nr := &nodeRepair{gen: o.planGen}
	o.plans[node] = nr
	for _, t := range tasks {
		t.Node = node
		if o.pushLocked(item{Task: t, forNode: node, gen: nr.gen}) {
			nr.outstanding++
		}
	}
	if nr.outstanding == 0 {
		// Every task was already queued for this node (a re-plan
		// racing the previous one); let the queued copies finish.
		delete(o.plans, node)
		o.mu.Unlock()
		o.counters.PlansExecuted.Add(1)
		o.mon.RepairDone(node, true)
		return
	}
	o.cond.Broadcast()
	o.mu.Unlock()
}

// dropNode discards queued work targeting a node that went Down —
// its plan's tasks and any scrub-found tasks aimed at it; repairs
// against it would only fail. A fresh plan is built when the node
// answers again, and the next scrub pass re-finds whatever stale
// shards still matter. In-flight repairs are left to fail on their
// own.
func (o *Orchestrator) dropNode(node int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if t := o.retries[node]; t != nil {
		t.Stop()
		delete(o.retries, node)
	}
	kept := o.queue[:0]
	for _, it := range o.queue {
		if it.forNode == node || it.Node == node {
			delete(o.queued, itemKey{it.Stripe, it.Shard, it.forNode})
			continue
		}
		kept = append(kept, it)
	}
	o.queue = kept
	heap.Init(&o.queue)
	delete(o.plans, node)
}

// pushLocked enqueues an item unless an identical one is already
// queued. Caller holds o.mu.
func (o *Orchestrator) pushLocked(it item) bool {
	key := itemKey{it.Stripe, it.Shard, it.forNode}
	if o.queued[key] {
		return false
	}
	o.queued[key] = true
	o.queue.PushItem(it)
	return true
}

// worker executes repairs from the priority queue.
func (o *Orchestrator) worker() {
	defer o.wg.Done()
	for {
		o.mu.Lock()
		for len(o.queue) == 0 && !o.closed {
			o.cond.Wait()
		}
		if o.closed {
			o.mu.Unlock()
			return
		}
		it := o.queue.PopItem()
		delete(o.queued, itemKey{it.Stripe, it.Shard, it.forNode})
		o.inflight++
		o.mu.Unlock()

		err := o.target.Repair(o.ctx, it.Task)
		switch {
		case err == nil:
			o.counters.Repairs.Add(1)
		case o.ctx.Err() != nil:
			// Shutdown cancellation, not a repair verdict: the chunk
			// was not found unrepairable, so don't alarm the failure
			// counter operators watch.
		default:
			o.counters.RepairFailures.Add(1)
		}

		var finished int = -1
		var failed bool
		o.mu.Lock()
		o.inflight--
		if it.forNode >= 0 {
			// Account only against the plan generation that issued
			// the task: a stale task surviving a Down-drop must not
			// complete (or fail) a successor plan for the same node.
			if nr := o.plans[it.forNode]; nr != nil && nr.gen == it.gen {
				nr.outstanding--
				if err != nil {
					nr.failed = true
				}
				if nr.outstanding == 0 {
					delete(o.plans, it.forNode)
					finished = it.forNode
					failed = nr.failed
				}
			}
		}
		o.mu.Unlock()
		if finished >= 0 {
			o.finishPlan(finished, failed)
		}
	}
}

// finishPlan reports a completed node plan to the monitor, and — when
// some of its repairs failed — schedules a re-plan so the node is not
// stranded in Repairing (other nodes may have been down; they may be
// back by the retry).
func (o *Orchestrator) finishPlan(node int, failed bool) {
	o.counters.PlansExecuted.Add(1)
	o.mon.RepairDone(node, !failed)
	if !failed {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.closed || o.retries[node] != nil {
		return
	}
	o.retries[node] = o.cfg.Clock.AfterFunc(o.cfg.RetryInterval, func() {
		o.mu.Lock()
		delete(o.retries, node)
		closed := o.closed
		o.mu.Unlock()
		if closed {
			return
		}
		if st := o.mon.NodeState(node); st != health.Repairing && st != health.Corrupt {
			return
		}
		o.plan(node)
	})
}

// scrubLoop runs anti-entropy passes forever, jittering each pause.
func (o *Orchestrator) scrubLoop() {
	defer o.wg.Done()
	for {
		if clock.Sleep(o.ctx, o.cfg.Clock, o.jittered(o.cfg.ScrubInterval)) != nil {
			return
		}
		o.scrubPass()
	}
}

// jittered returns d ± Jitter·d.
func (o *Orchestrator) jittered(d time.Duration) time.Duration {
	o.mu.Lock()
	f := 1 + o.cfg.ScrubJitter*(2*o.jitter.Float64()-1)
	o.mu.Unlock()
	j := time.Duration(float64(d) * f)
	if j < time.Millisecond {
		j = time.Millisecond
	}
	return j
}

// scrubPass audits every live stripe once, paced, enqueueing repair
// work for the degradation it finds.
func (o *Orchestrator) scrubPass() {
	stripes := o.target.Stripes()
	o.mu.Lock()
	o.scrub.audited, o.scrub.total = 0, len(stripes)
	o.mu.Unlock()
	for i, stripe := range stripes {
		if i > 0 && clock.Sleep(o.ctx, o.cfg.Clock, o.cfg.ScrubPace) != nil {
			return
		}
		tasks, err := o.target.ScrubStripe(o.ctx, stripe, o.down)
		o.counters.ScrubStripes.Add(1)
		if err != nil {
			if o.ctx.Err() != nil {
				return
			}
			o.counters.ScrubErrors.Add(1)
		}
		o.mu.Lock()
		o.scrub.audited = i + 1
		if !o.closed {
			pushed := 0
			for _, t := range tasks {
				if o.pushLocked(item{Task: t, forNode: -1}) {
					pushed++
				}
			}
			if pushed > 0 {
				o.counters.ScrubDegraded.Add(int64(pushed))
				o.cond.Broadcast()
			}
		}
		o.mu.Unlock()
	}
	o.counters.ScrubPasses.Add(1)
	o.mu.Lock()
	o.scrub.audited, o.scrub.total = 0, 0
	o.mu.Unlock()
}
