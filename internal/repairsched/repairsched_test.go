package repairsched

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"trapquorum/internal/clock"
	"trapquorum/internal/health"
)

var errRepair = errors.New("repair failed")

// fakeTarget is a scriptable store: a set of chunks per node, a
// switch to fail repairs, and a log of executed repairs.
type fakeTarget struct {
	mu        sync.Mutex
	plans     map[int][]Task
	stripes   []uint64
	scrubbed  map[uint64]int
	scrubOut  map[uint64][]Task
	failNext  int // fail this many repairs before succeeding
	repairs   []Task
	repairGap time.Duration
}

func newFakeTarget() *fakeTarget {
	return &fakeTarget{
		plans:    make(map[int][]Task),
		scrubbed: make(map[uint64]int),
		scrubOut: make(map[uint64][]Task),
	}
}

func (f *fakeTarget) PlanNodeRepairs(node int, down func(int) bool) []Task {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Task(nil), f.plans[node]...)
}

func (f *fakeTarget) Repair(ctx context.Context, t Task) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f.mu.Lock()
	gap := f.repairGap
	fail := f.failNext > 0
	if fail {
		f.failNext--
	}
	f.mu.Unlock()
	if gap > 0 {
		time.Sleep(gap)
	}
	if fail {
		return errRepair
	}
	f.mu.Lock()
	f.repairs = append(f.repairs, t)
	f.mu.Unlock()
	return nil
}

func (f *fakeTarget) Stripes() []uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]uint64(nil), f.stripes...)
}

func (f *fakeTarget) ScrubStripe(ctx context.Context, stripe uint64, down func(int) bool) ([]Task, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.scrubbed[stripe]++
	return append([]Task(nil), f.scrubOut[stripe]...), nil
}

func (f *fakeTarget) executed() []Task {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Task(nil), f.repairs...)
}

// fleet mirrors the health test's probe switchboard.
type fleet struct {
	mu   sync.Mutex
	down map[int]bool
}

func (f *fleet) set(node int, d bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down[node] = d
}

func (f *fleet) probe(_ context.Context, node int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down[node] {
		return errors.New("down")
	}
	return nil
}

// epoch is where the rig's manual clocks start.
var epoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// waitFor polls for what an asynchronous goroutine does; it never
// stands in for a probe, retry or scrub interval, which the rig's
// manual clocks step.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// rigged is a monitor and an orchestrator over a fake fleet and
// target. Each runs on its own manual clock, so a test steps probe
// rounds without firing a retry or scrub timer, and the other way
// round.
type rigged struct {
	fl     *fleet
	mon    *health.Monitor
	orc    *Orchestrator
	probes *clock.Manual // the monitor's: one timer, the probe loop's
	sched  *clock.Manual // the orchestrator's: retries, scrub and pace sleeps
}

// probeInterval is the monitor's default interval, which the rig keeps.
const probeInterval = 500 * time.Millisecond

// rig starts a Threshold-2 monitor over n nodes and an orchestrator on
// the target.
func rig(t *testing.T, n int, target Target, cfg Config) *rigged {
	t.Helper()
	r := &rigged{
		fl:     &fleet{down: make(map[int]bool)},
		probes: clock.NewManual(epoch),
		sched:  clock.NewManual(epoch),
	}
	mon, err := health.New(n, r.fl.probe, health.Config{Threshold: 2, Clock: r.probes})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Clock = r.sched
	r.mon, r.orc = mon, New(target, mon, cfg)
	r.orc.Start()
	mon.Start()
	t.Cleanup(func() {
		r.orc.Close()
		mon.Close()
	})
	return r
}

// round runs exactly one probe round: the probe loop is parked on its
// timer, the clock steps one interval, and the loop parks again only
// after it applied the round. The orchestrator reacts asynchronously.
func (r *rigged) round(t *testing.T) {
	t.Helper()
	waitFor(t, "probe loop parked", func() bool { return r.probes.Pending() == 1 })
	r.probes.Advance(probeInterval)
	waitFor(t, "probe round applied", func() bool { return r.probes.Pending() == 1 })
}

// cycle takes node down for the two rounds of the threshold, then back
// up for one round, which hands it to the orchestrator as Repairing.
func (r *rigged) cycle(t *testing.T, node int) {
	t.Helper()
	r.fl.set(node, true)
	r.round(t)
	r.round(t)
	if st := r.mon.NodeState(node); st != health.Down {
		t.Fatalf("node %d is %v after two failed rounds, want down", node, st)
	}
	r.fl.set(node, false)
	r.round(t)
}

// stepUntil fires the orchestrator's timers, each once a goroutine has
// parked on it, stepping the clock by d, until cond holds.
func (r *rigged) stepUntil(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		if r.sched.Pending() > 0 {
			r.sched.Advance(d)
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

func TestNodePlanRunsOnRepairingAndMarksUp(t *testing.T) {
	target := newFakeTarget()
	target.plans[1] = []Task{
		{Stripe: 7, Shard: 1, Priority: 1},
		{Stripe: 9, Shard: 1, Priority: 2},
	}
	r := rig(t, 3, target, Config{ScrubInterval: -1})

	r.cycle(t, 1)
	waitFor(t, "node 1 healed", func() bool { return r.mon.NodeState(1) == health.Up })

	got := target.executed()
	if len(got) != 2 {
		t.Fatalf("executed %d repairs, want 2", len(got))
	}
	// Priority 2 (more redundancy lost) must run before priority 1.
	if got[0].Stripe != 9 || got[1].Stripe != 7 {
		t.Fatalf("execution order %v, want stripe 9 before 7", got)
	}
	for _, task := range got {
		if task.Node != 1 {
			t.Fatalf("task %v not retargeted at node 1", task)
		}
	}
	if c := r.orc.Counters(); c.Repairs != 2 || c.PlansExecuted != 1 {
		t.Fatalf("counters %+v, want 2 repairs / 1 plan", c)
	}
}

func TestEmptyPlanHealsImmediately(t *testing.T) {
	target := newFakeTarget()
	r := rig(t, 2, target, Config{ScrubInterval: -1})
	r.cycle(t, 0)
	waitFor(t, "up", func() bool { return r.mon.NodeState(0) == health.Up })
	if got := target.executed(); len(got) != 0 {
		t.Fatalf("executed %v on an empty plan", got)
	}
}

// TestFailedPlanRetriesUntilHealed: a plan with a failed repair arms
// one retry, RetryInterval out on the orchestrator's clock; the node
// stays Repairing until the retry fires and its plan succeeds.
func TestFailedPlanRetriesUntilHealed(t *testing.T) {
	target := newFakeTarget()
	target.plans[0] = []Task{{Stripe: 1, Shard: 0, Priority: 1}}
	target.failNext = 1 // first repair attempt fails, retry succeeds
	const retry = 2 * time.Second
	r := rig(t, 2, target, Config{ScrubInterval: -1, RetryInterval: retry})

	r.cycle(t, 0)
	waitFor(t, "retry armed", func() bool { return r.sched.Pending() == 1 })
	r.sched.Advance(retry - time.Nanosecond)
	if p := r.sched.Pending(); p != 1 {
		t.Fatalf("retry fired before RetryInterval (%d timers armed)", p)
	}
	if st := r.mon.NodeState(0); st != health.Repairing {
		t.Fatalf("node 0 is %v while its retry is pending, want repairing", st)
	}
	r.sched.Advance(time.Nanosecond)
	waitFor(t, "healed after retry", func() bool { return r.mon.NodeState(0) == health.Up })
	c := r.orc.Counters()
	if c.RepairFailures != 1 || c.Repairs != 1 {
		t.Fatalf("counters %+v, want exactly 1 failure then 1 success", c)
	}
	if c.PlansExecuted != 2 {
		t.Fatalf("PlansExecuted = %d, want 2 (original + retry)", c.PlansExecuted)
	}
}

func TestDownDropsQueuedWork(t *testing.T) {
	target := newFakeTarget()
	var tasks []Task
	for i := 0; i < 50; i++ {
		tasks = append(tasks, Task{Stripe: uint64(i + 1), Shard: 0, Priority: 1})
	}
	target.plans[0] = tasks
	target.repairGap = 2 * time.Millisecond // slow workers: the queue stays deep
	r := rig(t, 2, target, Config{ScrubInterval: -1, RepairConcurrency: 1})

	r.cycle(t, 0)
	waitFor(t, "repairing with backlog", func() bool {
		return r.mon.NodeState(0) == health.Repairing && r.orc.Status().Backlog > 10
	})
	r.fl.set(0, true)
	r.round(t)
	r.round(t)
	waitFor(t, "queue drained by drop", func() bool {
		s := r.orc.Status()
		return s.Backlog == 0 && s.InFlight == 0
	})
	if got := len(target.executed()); got >= 50 {
		t.Fatalf("executed %d repairs, want the drop to cancel most of 50", got)
	}
}

// gateTarget blocks the first repair of stripe 1 until released, and
// makes it fail — the in-flight straggler of a dropped plan.
type gateTarget struct {
	*fakeTarget
	gateOnce sync.Once
	entered  chan struct{}
	release  chan struct{}
}

func (g *gateTarget) Repair(ctx context.Context, t Task) error {
	gated := false
	if t.Stripe == 1 {
		g.gateOnce.Do(func() { gated = true })
	}
	if gated {
		close(g.entered)
		<-g.release
		return errRepair
	}
	return g.fakeTarget.Repair(ctx, t)
}

// TestStaleInFlightTaskDoesNotCorruptSuccessorPlan: a repair still in
// flight when its node goes Down (dropping the plan) settles only
// after the node returned and a new plan was issued. Its failure must
// not be charged to the new plan — the node heals on the new plan's
// own all-success completion, with no retry armed.
func TestStaleInFlightTaskDoesNotCorruptSuccessorPlan(t *testing.T) {
	inner := newFakeTarget()
	inner.plans[0] = []Task{
		{Stripe: 1, Shard: 0, Priority: 9}, // gated: highest priority, picked first
		{Stripe: 2, Shard: 0, Priority: 1},
		{Stripe: 3, Shard: 0, Priority: 1},
	}
	target := &gateTarget{fakeTarget: inner, entered: make(chan struct{}), release: make(chan struct{})}
	r := rig(t, 2, target, Config{ScrubInterval: -1, RepairConcurrency: 1})

	// Plan A starts; its first task (stripe 1) blocks in flight.
	r.cycle(t, 0)
	<-target.entered

	// The node dies again (plan A dropped, stripe-1 task still in
	// flight), then returns: plan B is issued.
	r.cycle(t, 0)
	waitFor(t, "plan B queued behind the straggler", func() bool {
		return r.mon.NodeState(0) == health.Repairing && r.orc.Status().Backlog == 3
	})

	// The stale task settles — with an error. Plan B's three repairs
	// then run and succeed; the node must go Up on B's completion,
	// and no retry timer may be armed for the stale failure.
	close(target.release)
	waitFor(t, "healed by plan B alone", func() bool { return r.mon.NodeState(0) == health.Up })
	if c := r.orc.Counters(); c.PlansExecuted != 1 || c.RepairFailures != 1 || c.Repairs != 3 {
		t.Fatalf("counters %+v, want exactly plan B executed (1), 1 stale failure, 3 repairs", c)
	}
	if p := r.sched.Pending(); p != 0 {
		t.Fatalf("%d retry timers armed, want none", p)
	}
}

// TestScrubFindsAndRepairsDegradation: the first pass starts no sooner
// than the shortest jittered ScrubInterval, audits every stripe and
// queues what it finds.
func TestScrubFindsAndRepairsDegradation(t *testing.T) {
	target := newFakeTarget()
	target.stripes = []uint64{1, 2, 3}
	target.scrubOut[2] = []Task{{Stripe: 2, Shard: 4, Node: 4, Priority: 1}}
	const interval, jitter = time.Minute, 0.2
	r := rig(t, 5, target, Config{ScrubInterval: interval, ScrubJitter: jitter})

	waitFor(t, "scrub loop parked", func() bool { return r.sched.Pending() == 1 })
	shortest := time.Duration(float64(interval) * (1 - jitter))
	r.sched.Advance(shortest - time.Nanosecond)
	if p := r.sched.Pending(); p != 1 || r.orc.Counters().ScrubStripes != 0 {
		t.Fatal("a scrub pass started before the shortest jittered interval")
	}
	r.stepUntil(t, "scrub pass + repair", interval, func() bool {
		c := r.orc.Counters()
		return c.ScrubPasses >= 1 && c.Repairs >= 1
	})
	target.mu.Lock()
	audited := target.scrubbed[1] > 0 && target.scrubbed[2] > 0 && target.scrubbed[3] > 0
	target.mu.Unlock()
	if !audited {
		t.Fatal("scrub pass skipped stripes")
	}
	got := target.executed()
	if len(got) == 0 || got[0].Stripe != 2 || got[0].Shard != 4 {
		t.Fatalf("scrub repairs %v, want stripe 2 shard 4", got)
	}
	if c := r.orc.Counters(); c.ScrubDegraded < 1 {
		t.Fatalf("ScrubDegraded = %d, want >= 1", c.ScrubDegraded)
	}
}

// TestDropNodeDiscardsAllTasksTargetingNode: a Down drop removes the
// node's plan tasks AND scrub-found tasks aimed at it, while leaving
// work for other nodes queued.
func TestDropNodeDiscardsAllTasksTargetingNode(t *testing.T) {
	mon, err := health.New(3, func(context.Context, int) error { return nil }, health.Config{})
	if err != nil {
		t.Fatal(err)
	}
	o := New(newFakeTarget(), mon, Config{}) // never started: direct queue surgery
	o.mu.Lock()
	o.pushLocked(item{Task: Task{Stripe: 1, Shard: 0, Node: 1}, forNode: -1})        // scrub task on node 1
	o.pushLocked(item{Task: Task{Stripe: 2, Shard: 0, Node: 2}, forNode: -1})        // scrub task on node 2
	o.pushLocked(item{Task: Task{Stripe: 3, Shard: 1, Node: 1}, forNode: 1, gen: 1}) // plan task on node 1
	o.plans[1] = &nodeRepair{gen: 1, outstanding: 1}
	o.mu.Unlock()

	o.dropNode(1)

	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.queue) != 1 || o.queue[0].Node != 2 {
		t.Fatalf("queue after drop: %+v, want only the node-2 scrub task", o.queue)
	}
	if len(o.queued) != 1 || !o.queued[itemKey{2, 0, -1}] {
		t.Fatalf("dedupe map after drop: %+v, want only the node-2 key", o.queued)
	}
	if o.plans[1] != nil {
		t.Fatal("plan for the dropped node survived")
	}
}

func TestScrubDisabled(t *testing.T) {
	target := newFakeTarget()
	target.stripes = []uint64{1}
	r := rig(t, 2, target, Config{ScrubInterval: -1})
	r.round(t) // the orchestrator's goroutines have had a round to start
	if p := r.sched.Pending(); p != 0 {
		t.Fatalf("%d timers armed with scrubbing disabled", p)
	}
	r.sched.Advance(time.Hour)
	if c := r.orc.Counters(); c.ScrubStripes != 0 {
		t.Fatalf("scrubbed %d stripes with scrubbing disabled", c.ScrubStripes)
	}
}

func TestCloseIsIdempotentAndStopsWork(t *testing.T) {
	target := newFakeTarget()
	target.stripes = []uint64{1, 2}
	r := rig(t, 2, target, Config{})
	r.stepUntil(t, "a stripe scrubbed", time.Hour, func() bool { return r.orc.Counters().ScrubStripes >= 1 })
	r.orc.Close()
	r.orc.Close()
	if p := r.sched.Pending(); p != 0 {
		t.Fatalf("%d timers still armed after Close", p)
	}
	before := r.orc.Counters().ScrubStripes
	r.sched.Advance(time.Hour)
	if after := r.orc.Counters().ScrubStripes; after != before {
		t.Fatalf("scrubbing continued after Close: %d -> %d", before, after)
	}
}

// TestDegradationTasksPolicy pins the shared repairable-degradation
// policy, corrupt shards included: stale at the lost count, corrupt at
// lost+1 (they actively poison reads), unreachable only behind a live
// node, nothing for down nodes.
func TestDegradationTasksPolicy(t *testing.T) {
	identity := func(shard int) int { return shard }
	isDown := func(node int) bool { return node == 4 }

	tasks := DegradationTasks(7, 6,
		[]int{1},    // stale
		[]int{2, 4}, // unreachable: shard 4's node is down
		[]int{3, 4}, // corrupt: shard 4's node is down
		identity, isDown)

	want := map[int]Task{
		1: {Stripe: 7, Shard: 1, Node: 1, Priority: 1},
		3: {Stripe: 7, Shard: 3, Node: 3, Priority: 2},
		2: {Stripe: 7, Shard: 2, Node: 2, Priority: 1},
	}
	if len(tasks) != len(want) {
		t.Fatalf("tasks %+v, want exactly %d (nothing for the down node)", tasks, len(want))
	}
	for _, task := range tasks {
		w, ok := want[task.Shard]
		if !ok {
			t.Fatalf("unexpected task %+v", task)
		}
		if task != w {
			t.Fatalf("task %+v, want %+v", task, w)
		}
	}

	// With nobody down there is no lost redundancy: stale and
	// unreachable at 0, corrupt still one above.
	tasks = DegradationTasks(7, 6, []int{0}, nil, []int{5}, identity, func(int) bool { return false })
	for _, task := range tasks {
		wantPrio := 0
		if task.Shard == 5 {
			wantPrio = 1
		}
		if task.Priority != wantPrio {
			t.Fatalf("task %+v, want priority %d", task, wantPrio)
		}
	}
}

// TestCorruptNodeGetsPlannedAndHeals: a corruption observation (not a
// probe failure — the node answers pings throughout) triggers a full
// node plan, and the plan's success releases the pin once the monitor's
// dwell of two probe intervals has passed without a fresh report.
func TestCorruptNodeGetsPlannedAndHeals(t *testing.T) {
	target := newFakeTarget()
	target.plans[1] = []Task{{Stripe: 3, Shard: 1, Priority: 2}}
	r := rig(t, 3, target, Config{ScrubInterval: -1})
	r.round(t)

	r.mon.ReportCorrupt(1)
	waitFor(t, "the node-1 plan executed", func() bool { return r.orc.Counters().PlansExecuted == 1 })
	r.round(t)
	if st := r.mon.NodeState(1); st != health.Corrupt {
		t.Fatalf("node 1 is %v one probe interval after its report, want corrupt", st)
	}
	r.round(t)
	waitFor(t, "corrupt node released after the dwell", func() bool { return r.mon.NodeState(1) == health.Up })
	got := target.executed()
	if len(got) != 1 || got[0].Stripe != 3 || got[0].Node != 1 {
		t.Fatalf("executed %v, want the node-1 plan", got)
	}
	if c := r.orc.Counters(); c.PlansExecuted != 1 || c.Repairs != 1 {
		t.Fatalf("counters %+v, want 1 plan / 1 repair", c)
	}
}

// TestPersistentlyLyingNodeStaysPinned: when every repair completes
// into fresh corruption reports (the liar keeps lying), the node must
// stay Corrupt across plans — it is never paraded as healthy.
func TestPersistentlyLyingNodeStaysPinned(t *testing.T) {
	inner := newFakeTarget()
	inner.plans[0] = []Task{{Stripe: 1, Shard: 0, Priority: 1}}
	lt := &lyingTarget{fakeTarget: inner, mon: func() *health.Monitor { return nil }}
	r := rig(t, 2, lt, Config{ScrubInterval: -1})

	// Wire the target's re-report hook to the monitor now that it exists.
	lt.mon = func() *health.Monitor { return r.mon }

	r.round(t)
	r.mon.ReportCorrupt(0)
	// Every completed plan re-arms; after several the node is still pinned.
	waitFor(t, "three plans executed", func() bool { return r.orc.Counters().PlansExecuted >= 3 })
	if got := r.mon.NodeState(0); got != health.Corrupt {
		t.Fatalf("liar state %v, want corrupt (pinned across plans)", got)
	}

	// The liar reforms: the next quiet plan releases it once probe
	// rounds have carried the clock past the dwell.
	lt.setLying(false)
	deadline := time.Now().Add(10 * time.Second)
	for r.mon.NodeState(0) != health.Up {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the reformed node to heal")
		}
		r.round(t)
	}
}

// lyingTarget re-reports corruption on every repair while lying is
// set, simulating a node that immediately re-serves wrong bytes.
type lyingTarget struct {
	*fakeTarget
	mu     sync.Mutex
	honest bool
	mon    func() *health.Monitor
}

func (l *lyingTarget) setLying(lying bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.honest = !lying
}

func (l *lyingTarget) Repair(ctx context.Context, t Task) error {
	err := l.fakeTarget.Repair(ctx, t)
	l.mu.Lock()
	honest := l.honest
	l.mu.Unlock()
	if err == nil && !honest {
		if mon := l.mon(); mon != nil {
			mon.ReportCorrupt(t.Node)
		}
	}
	return err
}
