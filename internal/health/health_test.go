package health

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"trapquorum/internal/clock"
)

var errProbe = errors.New("probe failed")

// fakeFleet is a concurrency-safe up/down switchboard for probes.
type fakeFleet struct {
	mu   sync.Mutex
	down map[int]bool
}

func newFakeFleet() *fakeFleet { return &fakeFleet{down: make(map[int]bool)} }

func (f *fakeFleet) set(node int, down bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.down[node] = down
}

func (f *fakeFleet) probe(_ context.Context, node int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down[node] {
		return errProbe
	}
	return nil
}

// transitionLog collects transitions via the synchronous callback.
type transitionLog struct {
	mu  sync.Mutex
	trs []Transition
}

func (l *transitionLog) add(tr Transition) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.trs = append(l.trs, tr)
}

func (l *transitionLog) snapshot() []Transition {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Transition(nil), l.trs...)
}

// epoch is where every test's manual clock starts.
var epoch = time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)

// waitFor polls for what an asynchronous goroutine does; it never
// stands in for a probe interval, which the manual clock steps.
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

// manualMonitor is a started monitor whose probe loop sleeps on a
// manual clock, so a test runs each probe round itself.
type manualMonitor struct {
	*Monitor
	clk *clock.Manual
}

// startManual builds and starts a monitor on a fresh manual clock.
// With drain set, a goroutine drains Transitions, for tests that only
// watch the callback log.
func startManual(t *testing.T, n int, probe ProbeFunc, cfg Config, drain bool) manualMonitor {
	t.Helper()
	clk := clock.NewManual(epoch)
	cfg.Clock = clk
	m, err := New(n, probe, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	if drain {
		go func() {
			for range m.Transitions() {
			}
		}()
	}
	m.Start()
	return manualMonitor{m, clk}
}

// round runs exactly one probe round: the loop is parked on its one
// timer, the clock steps one interval, and the loop parks again only
// after it applied the round.
func (m manualMonitor) round(t *testing.T) {
	t.Helper()
	waitFor(t, "probe loop parked", func() bool { return m.clk.Pending() == 1 })
	m.clk.Advance(m.cfg.Interval)
	waitFor(t, "probe round applied", func() bool { return m.clk.Pending() == 1 })
}

// rounds runs k probe rounds.
func (m manualMonitor) rounds(t *testing.T, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		m.round(t)
	}
}

// wantState fails unless node is in state want.
func (m manualMonitor) wantState(t *testing.T, node int, want State) {
	t.Helper()
	if got := m.NodeState(node); got != want {
		t.Fatalf("node %d is %v, want %v", node, got, want)
	}
}

func newTestMonitor(t *testing.T, n int, fleet *fakeFleet, log *transitionLog, threshold int) manualMonitor {
	t.Helper()
	cfg := Config{Threshold: threshold}
	if log != nil {
		cfg.OnTransition = log.add
	}
	return startManual(t, n, fleet.probe, cfg, true)
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, func(context.Context, int) error { return nil }, Config{}); err == nil {
		t.Fatal("want error for n=0")
	}
	if _, err := New(3, nil, Config{}); err == nil {
		t.Fatal("want error for nil probe")
	}
}

func TestStateMachineDownAndBack(t *testing.T) {
	fleet := newFakeFleet()
	log := &transitionLog{}
	m := newTestMonitor(t, 3, fleet, log, 3)

	m.round(t)
	if p := m.Counters().Probes; p != 3 {
		t.Fatalf("%d probes after one round of 3 nodes", p)
	}
	for _, st := range m.Snapshot() {
		if st.State != Up {
			t.Fatalf("node %d starts %v, want up", st.Node, st.State)
		}
		if !st.LastProbe.Equal(epoch.Add(m.cfg.Interval)) {
			t.Fatalf("node %d last probed at %v, want the round's virtual time", st.Node, st.LastProbe)
		}
	}

	// Three consecutive failures: suspect after the first and second,
	// down on the third.
	fleet.set(1, true)
	m.rounds(t, 2)
	m.wantState(t, 1, Suspect)
	m.round(t)
	m.wantState(t, 1, Down)

	// The path there must have visited Suspect first (the observer is
	// dispatched asynchronously: wait for it to catch up).
	node1Path := func() []State {
		var saw []State
		for _, tr := range log.snapshot() {
			if tr.Node == 1 {
				saw = append(saw, tr.To)
			}
		}
		return saw
	}
	waitFor(t, "down transition observed", func() bool {
		saw := node1Path()
		return len(saw) > 0 && saw[len(saw)-1] == Down
	})
	saw := node1Path()
	if len(saw) < 2 || saw[0] != Suspect || saw[len(saw)-1] != Down {
		t.Fatalf("node 1 transitions %v, want suspect then down", saw)
	}
	if m.NodeState(0) != Up || m.NodeState(2) != Up {
		t.Fatal("unrelated nodes must stay up")
	}

	// Node answers again: down -> repairing, and it stays there until
	// the orchestrator reports the repair done.
	fleet.set(1, false)
	m.round(t)
	m.wantState(t, 1, Repairing)
	m.rounds(t, 3)
	m.wantState(t, 1, Repairing)

	m.RepairDone(1, false)
	m.wantState(t, 1, Repairing)
	m.RepairDone(1, true)
	m.wantState(t, 1, Up)
	if c := m.Counters(); c.Recoveries != 1 || c.DownEvents != 1 || c.Suspicions != 1 {
		t.Fatalf("counters %+v, want 1 suspicion, 1 down, 1 recovery", c)
	}
}

func TestSuspectRecoversWithoutDown(t *testing.T) {
	fleet := newFakeFleet()
	log := &transitionLog{}
	m := newTestMonitor(t, 1, fleet, log, 50) // high threshold: never Down

	fleet.set(0, true)
	m.rounds(t, 3)
	m.wantState(t, 0, Suspect)
	fleet.set(0, false)
	m.round(t)
	m.wantState(t, 0, Up)

	for _, tr := range log.snapshot() {
		if tr.To == Down || tr.To == Repairing {
			t.Fatalf("unexpected transition %v", tr)
		}
	}
	if c := m.Counters(); c.DownEvents != 0 {
		t.Fatalf("DownEvents = %d, want 0", c.DownEvents)
	}
}

func TestThresholdOneGoesStraightThroughSuspect(t *testing.T) {
	fleet := newFakeFleet()
	log := &transitionLog{}
	m := newTestMonitor(t, 1, fleet, log, 1)

	fleet.set(0, true)
	m.round(t)
	m.wantState(t, 0, Down)
	waitFor(t, "down observed", func() bool { return len(log.snapshot()) >= 2 })
	var saw []State
	for _, tr := range log.snapshot() {
		saw = append(saw, tr.To)
	}
	if saw[0] != Suspect || saw[1] != Down {
		t.Fatalf("transitions %v, want suspect immediately followed by down", saw)
	}
}

func TestRepairingNodeFallsBackToDown(t *testing.T) {
	fleet := newFakeFleet()
	m := newTestMonitor(t, 1, fleet, nil, 2)

	fleet.set(0, true)
	m.rounds(t, 2)
	m.wantState(t, 0, Down)
	fleet.set(0, false)
	m.round(t)
	m.wantState(t, 0, Repairing)
	fleet.set(0, true)
	m.round(t)
	m.wantState(t, 0, Repairing) // one failure is below the threshold
	m.round(t)
	m.wantState(t, 0, Down)
	if c := m.Counters(); c.DownEvents != 2 {
		t.Fatalf("DownEvents = %d, want 2", c.DownEvents)
	}
}

func TestCountersMonotoneUnderConcurrentReads(t *testing.T) {
	fleet := newFakeFleet()
	m := newTestMonitor(t, 4, fleet, nil, 2)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last CountersSnapshot
			for {
				select {
				case <-stop:
					return
				default:
				}
				c := m.Counters()
				if c.Probes < last.Probes || c.ProbeFailures < last.ProbeFailures ||
					c.Suspicions < last.Suspicions || c.DownEvents < last.DownEvents ||
					c.Recoveries < last.Recoveries {
					t.Error("counters regressed")
					return
				}
				last = c
				m.Snapshot()
			}
		}()
	}
	// Flap nodes while readers sample.
	for i := 0; i < 20; i++ {
		fleet.set(i%4, i%3 == 0)
		m.round(t)
	}
	close(stop)
	wg.Wait()
}

// TestEmitNeverBlocksWithoutConsumer pins the non-blocking emission
// contract: with nobody draining Transitions, the probe loop (and
// RepairDone, which the orchestrator calls from the consumer
// goroutine itself) must keep running far past the channel's buffer.
func TestEmitNeverBlocksWithoutConsumer(t *testing.T) {
	fleet := newFakeFleet()
	m := startManual(t, 1, fleet.probe, Config{Threshold: 1}, false) // no drain goroutine

	// Flap the node: every round emits transitions into the undrained
	// channel, far more than its buffer holds. Each round returning
	// proves the loop did not stall.
	for i := 0; i < 60; i++ {
		fleet.set(0, i%2 == 0)
		m.round(t)
		if i == 30 {
			m.RepairDone(0, true) // must not block either
		}
	}
	if p := m.Counters().Probes; p != 60 {
		t.Fatalf("%d probes after 60 rounds", p)
	}
}

// TestCloseIsIdempotentAndClosesTransitions: Close ends the probe
// loop's sleep, leaving no timer armed, and closes the channel.
func TestCloseIsIdempotentAndClosesTransitions(t *testing.T) {
	fleet := newFakeFleet()
	m := startManual(t, 2, fleet.probe, Config{}, false)
	m.round(t)
	m.Close()
	m.Close()
	if p := m.clk.Pending(); p != 0 {
		t.Fatalf("%d timers armed after Close", p)
	}
	if _, ok := <-m.Transitions(); ok {
		// Draining any buffered transitions is fine; the channel must
		// eventually report closed.
		for range m.Transitions() {
		}
	}
}

// TestReportCorruptPinsNode: a corruption observation pins an Up node
// to Corrupt, and successful probes never clear the pin — a lying node
// pings fine.
func TestReportCorruptPinsNode(t *testing.T) {
	fleet := newFakeFleet()
	log := &transitionLog{}
	m := newTestMonitor(t, 2, fleet, log, 3)
	m.round(t)

	m.ReportCorrupt(0)
	m.wantState(t, 0, Corrupt)
	// Probes keep succeeding; the pin must hold.
	m.rounds(t, 3)
	m.wantState(t, 0, Corrupt)
	m.wantState(t, 1, Up)
	c := m.Counters()
	if c.CorruptReports != 1 || c.CorruptEvents != 1 {
		t.Fatalf("counters %+v, want 1 corrupt report and 1 corrupt event", c)
	}
	waitFor(t, "corrupt transition observed", func() bool {
		for _, tr := range log.snapshot() {
			if tr.Node == 0 && tr.To == Corrupt {
				return true
			}
		}
		return false
	})
	for _, st := range m.Snapshot() {
		if st.Node == 0 && st.CorruptReports != 1 {
			t.Fatalf("snapshot %+v, want 1 corrupt report on node 0", st)
		}
	}
}

// TestCorruptClearsOnQuietRepair: RepairDone(ok) releases the pin only
// once no corruption report has arrived for the dwell of two probe
// intervals — a plan completing in the gap between two reads must not
// flap a still-lying node through Up. A transient rot victim heals to
// Up once the dwell passes clean; fresh reports re-plan instead.
func TestCorruptClearsOnQuietRepair(t *testing.T) {
	fleet := newFakeFleet()
	m := newTestMonitor(t, 1, fleet, nil, 3)

	// Honest bit-rot: one report, one plan. The plan completes within
	// the dwell of the report, so the clear is deferred to the probe
	// loop: one interval later the node is still pinned, two intervals
	// later it is released.
	m.ReportCorrupt(0)
	m.wantState(t, 0, Corrupt)
	m.RepairDone(0, true)
	m.wantState(t, 0, Corrupt)
	m.round(t)
	m.wantState(t, 0, Corrupt)
	m.round(t)
	m.wantState(t, 0, Up)
	if c := m.Counters(); c.Recoveries != 1 {
		t.Fatalf("counters %+v, want 1 recovery", c)
	}

	// A report landing after the plan finished (deferred-clear window)
	// re-plans: the node stays Corrupt however long the dwell has
	// passed, because a plan is outstanding again. Its completion, past
	// the dwell, releases the node at once.
	m.ReportCorrupt(0) // pin again (from Up)
	m.RepairDone(0, true)
	m.ReportCorrupt(0) // fresh rot while waiting out the dwell
	m.rounds(t, 3)
	m.wantState(t, 0, Corrupt)
	m.RepairDone(0, true)
	m.wantState(t, 0, Up)

	// Persistent liar: a fresh report lands while the plan runs, so the
	// completed repair re-arms instead of clearing.
	m.ReportCorrupt(0)
	m.ReportCorrupt(0) // observation during the "plan"
	m.RepairDone(0, true)
	m.wantState(t, 0, Corrupt)
	m.RepairDone(0, true)
	m.wantState(t, 0, Corrupt)
	m.rounds(t, 2)
	m.wantState(t, 0, Up)
	if c := m.Counters(); c.CorruptReports != 5 || c.CorruptEvents != 5 || c.Recoveries != 3 {
		t.Fatalf("counters %+v, want 5 reports / 5 events / 3 recoveries", c)
	}
}

// TestCorruptNodeFallsToDown: probe failures outrank the corruption
// pin — a corrupt node that stops answering is Down (and loses the
// pin; corruption is re-reported if it returns still lying).
func TestCorruptNodeFallsToDown(t *testing.T) {
	fleet := newFakeFleet()
	m := newTestMonitor(t, 1, fleet, nil, 2)
	m.round(t)

	m.ReportCorrupt(0)
	fleet.set(0, true)
	m.rounds(t, 2)
	m.wantState(t, 0, Down)
	fleet.set(0, false)
	m.round(t)
	m.wantState(t, 0, Repairing)
	m.RepairDone(0, true)
	m.wantState(t, 0, Up) // the down/up cycle cleared the pin
}

// TestReportCorruptIgnoredWhileDownOrOutOfRange: reports against Down
// nodes count but do not flip state (the node serves nothing), and
// out-of-range reports are no-ops.
func TestReportCorruptIgnoredWhileDownOrOutOfRange(t *testing.T) {
	fleet := newFakeFleet()
	m := newTestMonitor(t, 1, fleet, nil, 1)
	fleet.set(0, true)
	m.round(t)
	m.wantState(t, 0, Down)

	m.ReportCorrupt(0)
	m.wantState(t, 0, Down)
	c := m.Counters()
	if c.CorruptReports != 1 || c.CorruptEvents != 0 {
		t.Fatalf("counters %+v, want the report counted but no event", c)
	}
	m.ReportCorrupt(-1)
	m.ReportCorrupt(99)
	if got := m.Counters().CorruptReports; got != 1 {
		t.Fatalf("out-of-range reports counted: %d", got)
	}
}

// latSource is a concurrency-safe fake external latency source.
type latSource struct {
	mu  sync.Mutex
	lat time.Duration
}

func (s *latSource) set(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lat = d
}

func (s *latSource) get(int) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lat, s.lat > 0
}

// newBrownoutMonitor builds a monitor with brownout detection fed by
// an external latency source.
func newBrownoutMonitor(t *testing.T, fleet *fakeFleet, log *transitionLog, src *latSource) manualMonitor {
	t.Helper()
	cfg := Config{
		Threshold:       3,
		BrownoutLatency: 50 * time.Millisecond,
		Latency:         src.get,
	}
	if log != nil {
		cfg.OnTransition = log.add
	}
	return startManual(t, 3, fleet.probe, cfg, true)
}

func TestBrownoutDetectsAndClearsWithHysteresis(t *testing.T) {
	fleet := newFakeFleet()
	src := &latSource{}
	src.set(time.Millisecond)
	m := newBrownoutMonitor(t, fleet, nil, src)

	m.round(t)
	m.wantState(t, 0, Up)

	// Latency climbs over the threshold: brownout, not down.
	src.set(200 * time.Millisecond)
	m.round(t)
	m.wantState(t, 0, Brownout)
	if c := m.Counters(); c.Brownouts < 1 || c.DownEvents != 0 {
		t.Fatalf("counters = %+v, want brownouts without down events", c)
	}

	// Back under the threshold but above half of it: hysteresis holds
	// the brownout.
	src.set(40 * time.Millisecond)
	m.rounds(t, 3)
	m.wantState(t, 0, Brownout)

	// Well below half: clears to Up.
	src.set(10 * time.Millisecond)
	m.round(t)
	m.wantState(t, 0, Up)
}

func TestBrownoutNodeFallsToDownOnFailures(t *testing.T) {
	fleet := newFakeFleet()
	log := &transitionLog{}
	src := &latSource{}
	src.set(200 * time.Millisecond)
	m := newBrownoutMonitor(t, fleet, log, src)

	m.round(t)
	m.wantState(t, 1, Brownout)

	// The browned-out node stops answering entirely: same
	// Suspect→Down road as an Up node.
	fleet.set(1, true)
	m.rounds(t, 3)
	m.wantState(t, 1, Down)
	waitFor(t, "brownout->suspect observed", func() bool {
		for _, tr := range log.snapshot() {
			if tr.Node == 1 && tr.From == Brownout && tr.To == Suspect {
				return true
			}
		}
		return false
	})

	// And when it answers again it goes through Repairing, with its
	// brownout history forgotten.
	src.set(time.Millisecond)
	fleet.set(1, false)
	m.round(t)
	m.wantState(t, 1, Repairing)
}

func TestProbeEWMAFallbackDrivesBrownout(t *testing.T) {
	// Without an external latency source the monitor's own probe
	// durations, on the runtime clock, feed the detector.
	probe := func(ctx context.Context, node int) error {
		if node == 2 {
			select {
			case <-time.After(30 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}
	m := startManual(t, 3, probe, Config{
		Timeout:         time.Second,
		Threshold:       3,
		BrownoutLatency: 15 * time.Millisecond,
	}, true)

	m.round(t)
	m.wantState(t, 2, Brownout)
	m.wantState(t, 0, Up)
	if lat := m.Snapshot()[2].Latency; lat < 15*time.Millisecond {
		t.Fatalf("node 2 latency = %v, want >= threshold", lat)
	}
}
