// Package health implements failure detection for a storage cluster:
// a Monitor probes every cluster node on a fixed interval and runs a
// per-node liveness state machine
//
//	Up → Suspect → Down → Repairing → Up
//
// whose transitions feed the background repair orchestrator
// (internal/repairsched). The detector is deliberately simple — a
// counting suspicion threshold over periodic probes, the classic
// heartbeat-style detector of practical erasure-coded stores — because
// the protocol itself already tolerates wrong guesses: a node marked
// Down that still answers RPCs merely gets repaired a little early,
// and a dead node not yet marked Down merely delays its repair. The
// monitor never gates foreground quorum traffic; it only decides when
// background reconvergence starts.
//
// States:
//
//   - Up: the node answers probes.
//   - Suspect: at least one probe failed; the node is still counted as
//     a full member (the quorum protocol keeps talking to it) while
//     consecutive failures accumulate.
//   - Down: Threshold consecutive probes failed. The orchestrator
//     drops any repair work targeting the node; reads decode around it
//     exactly as before — Down is an observation, not an exclusion.
//   - Repairing: a Down node answered a probe again (the process
//     restarted, the partition healed, the disk was replaced). The
//     orchestrator rebuilds every chunk the placement assigns to the
//     node; when the plan completes the node returns to Up.
//
// A node can also sit in two alive-but-wrong states: Corrupt (it
// answers probes while serving disavowed bytes — see ReportCorrupt)
// and Brownout (it answers probes slowly — degraded, not down; see
// Config.BrownoutLatency). Brownout distinguishes a congested link or
// dying disk from a dead node: no repair is planned, the node stays a
// full quorum member, and the state clears itself once latency
// recovers.
//
// The monitor is transport-agnostic: it probes through a ProbeFunc,
// which the public layer binds to the backend's cheapest liveness
// check (a TCP ping on the network plane, the fail-stop flag on the
// simulator).
package health

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"trapquorum/internal/clock"
)

// State is one position of the per-node liveness state machine.
type State uint8

// The liveness states, in the order the machine normally traverses
// them. A Suspect node whose next probe succeeds returns directly to
// Up; a Repairing node that stops answering again falls back to Down.
const (
	// Up: the node answers probes and needs no background work.
	Up State = iota
	// Suspect: recent probes failed but the suspicion threshold has
	// not been reached; no action is taken yet.
	Suspect
	// Down: the suspicion threshold was reached; the node is
	// considered failed until it answers a probe again.
	Down
	// Repairing: the node answers again after being Down and the
	// repair orchestrator is restoring its chunks.
	Repairing
	// Corrupt: the node is alive — it answers probes — but the read
	// or scrub path observed it serving bytes its peers' cross-checksum
	// records disavow. Probe success never clears Corrupt (a lying node
	// pings fine); the node returns to Up only after a repair plan
	// completes AND the node then stays free of corruption reports for
	// two probe intervals, so a persistently corrupt node stays pinned
	// here instead of flapping between plans.
	Corrupt
	// Brownout: the node answers probes but slowly — its smoothed
	// latency exceeds Config.BrownoutLatency. Degraded, not down: it
	// still counts as a full member and no repair is planned; the
	// signal is for operators (a link is congested, a disk is dying)
	// and for hedging-aware callers. Cleared with hysteresis once the
	// latency falls back below half the threshold; probe *failures*
	// move a Brownout node down the Suspect→Down path like an Up node.
	Brownout
)

// String renders the state for logs and operator output.
func (s State) String() string {
	switch s {
	case Up:
		return "up"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	case Repairing:
		return "repairing"
	case Corrupt:
		return "corrupt"
	case Brownout:
		return "brownout"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// ProbeFunc checks one node's liveness. A nil error means the node
// answered; any error counts as a failed probe. Implementations must
// honour ctx (each probe runs under the monitor's per-probe timeout)
// and must be safe for concurrent use — the monitor probes all nodes
// of a round in parallel.
type ProbeFunc func(ctx context.Context, node int) error

// Transition records one state-machine edge of one node.
type Transition struct {
	// Node is the cluster node that moved.
	Node int
	// From is the state the node left.
	From State
	// To is the state the node entered.
	To State
	// At is when the monitor applied the transition.
	At time.Time
}

// String renders "node 3: down -> repairing".
func (t Transition) String() string {
	return fmt.Sprintf("node %d: %s -> %s", t.Node, t.From, t.To)
}

// Config parameterises a Monitor. Zero fields take the defaults
// documented per field.
type Config struct {
	// Interval is the pause between probe rounds (default 500ms).
	Interval time.Duration
	// Timeout bounds each individual probe (default: Interval).
	Timeout time.Duration
	// Threshold is how many consecutive probes must fail before a
	// node is declared Down (default 3). 1 declares Down on the first
	// failure (the Suspect transition is still emitted).
	Threshold int
	// Clock arms the probe timer and dates probes, transitions and
	// corruption reports, so the Corrupt dwell is measured on it (nil:
	// clock.Real). Probe durations and timeouts stay on the runtime
	// clock.
	Clock clock.Clock
	// BrownoutLatency, when positive, enables brownout detection: a
	// node whose smoothed latency exceeds it moves Up→Brownout, and
	// returns once the latency drops below half of it (hysteresis, so
	// a node sitting at the threshold doesn't flap).
	BrownoutLatency time.Duration
	// Latency, when non-nil, supplies the per-node smoothed latency
	// brownout detection consults (for example a transport's per-node
	// EWMA over real operations); ok=false means no samples yet. When
	// nil the monitor falls back to its own probe-duration EWMA. Called
	// with the monitor's lock held — implementations must not call back
	// into the monitor.
	Latency func(node int) (lat time.Duration, ok bool)
	// OnTransition, when non-nil, observes every transition in
	// application order, invoked from the monitor's single dispatcher
	// goroutine just before the transition is delivered on the
	// Transitions channel — so it never runs concurrently with itself
	// and may safely call back into the monitor. Keep it fast; it is
	// meant for logging and tests.
	OnTransition func(Transition)
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Interval
	}
	if c.Threshold < 1 {
		c.Threshold = 3
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	return c
}

// Counters are the monitor's cumulative event counts. All fields are
// monotone and safe to read while the monitor runs.
type Counters struct {
	// Probes counts every probe issued.
	Probes atomic.Int64
	// ProbeFailures counts probes that returned an error.
	ProbeFailures atomic.Int64
	// Suspicions counts Up→Suspect transitions.
	Suspicions atomic.Int64
	// DownEvents counts transitions into Down.
	DownEvents atomic.Int64
	// Recoveries counts Repairing→Up transitions (a node fully
	// healed).
	Recoveries atomic.Int64
	// CorruptReports counts every ReportCorrupt call — one per
	// corruption observation delivered by the read, repair or scrub
	// paths.
	CorruptReports atomic.Int64
	// CorruptEvents counts transitions into Corrupt (first pinning and
	// every re-arm after a repair plan raced fresh reports).
	CorruptEvents atomic.Int64
	// Brownouts counts transitions into Brownout.
	Brownouts atomic.Int64
}

// CountersSnapshot is a plain-value copy of Counters.
type CountersSnapshot struct {
	// Probes counts every probe issued.
	Probes int64
	// ProbeFailures counts probes that returned an error.
	ProbeFailures int64
	// Suspicions counts Up→Suspect transitions.
	Suspicions int64
	// DownEvents counts transitions into Down.
	DownEvents int64
	// Recoveries counts Repairing→Up transitions.
	Recoveries int64
	// CorruptReports counts corruption observations reported.
	CorruptReports int64
	// CorruptEvents counts transitions into Corrupt.
	CorruptEvents int64
	// Brownouts counts transitions into Brownout.
	Brownouts int64
}

// NodeStatus is the externally visible state of one node.
type NodeStatus struct {
	// Node is the cluster node index.
	Node int
	// State is the node's current liveness state.
	State State
	// ConsecutiveFailures is the current run of failed probes (reset
	// by any successful probe).
	ConsecutiveFailures int
	// LastProbe is when the node's latest probe settled (zero before
	// the first round).
	LastProbe time.Time
	// LastTransition is when the node last changed state (zero while
	// it has never left Up).
	LastTransition time.Time
	// CorruptReports is how many corruption observations have been
	// reported against this node over the monitor's lifetime.
	CorruptReports int64
	// Latency is the smoothed latency brownout detection last consulted
	// for this node (the external source when configured, the probe
	// EWMA otherwise); 0 before the first sample.
	Latency time.Duration
}

type nodeState struct {
	state          State
	failures       int
	lastProbe      time.Time
	lastTransition time.Time
	// corruptSeq counts corruption reports against the node;
	// corruptPlanned is the value captured when the current Corrupt
	// repair plan was armed. RepairDone clears Corrupt only when the
	// two still agree — reports arriving mid-plan re-arm instead.
	corruptSeq     int64
	corruptPlanned int64
	// lastCorrupt is when the latest corruption report arrived;
	// pendingClear marks a Corrupt node whose plan completed quietly
	// but within the dwell of the last report — the probe loop clears
	// it to Up once the dwell elapses report-free, and a fresh report
	// instead re-plans it.
	lastCorrupt  time.Time
	pendingClear bool
	// probeEWMA smooths successful probe durations — the fallback
	// latency source for brownout detection; lastLatency is whatever
	// source the detector last consulted (for NodeStatus).
	probeEWMA   time.Duration
	lastLatency time.Duration
}

// Monitor probes a fixed-size cluster and maintains the per-node
// state machines. Construct with New, then Start; Close stops the
// probe loop and closes the Transitions channel.
type Monitor struct {
	probe ProbeFunc
	cfg   Config

	mu    sync.Mutex
	nodes []nodeState

	// Transitions are staged in an unbounded queue while m.mu is
	// still held — so queue order always equals application order,
	// even when RepairDone races a probe round — and delivered by a
	// dedicated dispatcher goroutine, which also invokes the
	// OnTransition callback (serialised, and free to call back into
	// the monitor). Staging never blocks: RepairDone is called from
	// the orchestrator's consumer goroutine — the channel's own
	// drainer — and a blocking send there would deadlock the whole
	// subsystem.
	qmu         sync.Mutex
	qcond       *sync.Cond
	pending     []Transition
	qclosed     bool
	transitions chan Transition

	counters Counters

	ctx       context.Context // ended by Close
	cancel    context.CancelFunc
	closeOnce sync.Once
	wg        sync.WaitGroup
	started   atomic.Bool
}

// New builds a monitor over nodes 0..n-1 probing through probe. The
// monitor is idle until Start.
func New(n int, probe ProbeFunc, cfg Config) (*Monitor, error) {
	if n < 1 {
		return nil, fmt.Errorf("health: need at least one node, got %d", n)
	}
	if probe == nil {
		return nil, errors.New("health: nil ProbeFunc")
	}
	m := &Monitor{
		probe:       probe,
		cfg:         cfg.withDefaults(),
		nodes:       make([]nodeState, n),
		transitions: make(chan Transition, 16),
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	m.qcond = sync.NewCond(&m.qmu)
	return m, nil
}

// Start launches the probe loop and the transition dispatcher. It
// must be called at most once.
func (m *Monitor) Start() {
	if m.started.Swap(true) {
		panic("health: Monitor started twice")
	}
	m.wg.Add(2)
	go m.run()
	go m.dispatch()
}

// Close stops the probe loop and the dispatcher, waits for in-flight
// probes to settle and closes the Transitions channel. Safe to call
// more than once.
func (m *Monitor) Close() {
	m.closeOnce.Do(func() {
		m.cancel()
		m.qmu.Lock()
		m.qclosed = true
		m.qmu.Unlock()
		m.qcond.Broadcast()
		if m.started.Load() {
			m.wg.Wait()
		}
		close(m.transitions)
	})
}

// Transitions is the stream of state-machine edges, in application
// order. The channel is closed by Close. Exactly one consumer should
// drain it (the repair orchestrator); use Config.OnTransition for
// additional observers.
func (m *Monitor) Transitions() <-chan Transition { return m.transitions }

// Snapshot returns the current status of every node.
func (m *Monitor) Snapshot() []NodeStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]NodeStatus, len(m.nodes))
	for i, n := range m.nodes {
		out[i] = NodeStatus{
			Node:                i,
			State:               n.state,
			ConsecutiveFailures: n.failures,
			LastProbe:           n.lastProbe,
			LastTransition:      n.lastTransition,
			CorruptReports:      n.corruptSeq,
			Latency:             n.lastLatency,
		}
	}
	return out
}

// NodeState returns one node's current state. It panics on an
// out-of-range index.
func (m *Monitor) NodeState(node int) State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.nodes[node].state
}

// NodeCount returns the number of monitored nodes.
func (m *Monitor) NodeCount() int { return len(m.nodes) }

// Counters returns a snapshot of the cumulative event counts.
func (m *Monitor) Counters() CountersSnapshot {
	return CountersSnapshot{
		Probes:         m.counters.Probes.Load(),
		ProbeFailures:  m.counters.ProbeFailures.Load(),
		Suspicions:     m.counters.Suspicions.Load(),
		DownEvents:     m.counters.DownEvents.Load(),
		Recoveries:     m.counters.Recoveries.Load(),
		CorruptReports: m.counters.CorruptReports.Load(),
		CorruptEvents:  m.counters.CorruptEvents.Load(),
		Brownouts:      m.counters.Brownouts.Load(),
	}
}

// ReportCorrupt records one corruption observation against a node:
// the read, repair or scrub path caught it serving bytes that
// disagree with the cross-checksum record majority. An Up or Suspect
// node transitions to Corrupt (triggering a repair plan); a node
// already Corrupt, Down or Repairing only accumulates the report —
// the pending plan's completion consults the count. Out-of-range
// nodes are ignored so callers can report unconditionally. Safe for
// concurrent use from any goroutine.
func (m *Monitor) ReportCorrupt(node int) {
	if node < 0 || node >= len(m.nodes) {
		return
	}
	m.counters.CorruptReports.Add(1)
	m.mu.Lock()
	st := &m.nodes[node]
	st.corruptSeq++
	st.lastCorrupt = m.cfg.Clock.Now()
	switch {
	case st.state == Up || st.state == Suspect || st.state == Brownout:
		st.corruptPlanned = st.corruptSeq
		m.counters.CorruptEvents.Add(1)
		m.stage(*m.applyLocked(node, Corrupt))
	case st.state == Corrupt && st.pendingClear:
		// The previous plan already finished; this report is fresh rot
		// with no plan in flight, so re-arm and re-plan.
		st.pendingClear = false
		st.corruptPlanned = st.corruptSeq
		m.counters.CorruptEvents.Add(1)
		m.stage(*m.applyLocked(node, Corrupt))
	}
	m.mu.Unlock()
}

// RepairDone reports the outcome of the repair plan for a Repairing
// or Corrupt node. ok moves the node to Up; !ok leaves it where it is
// (the orchestrator retries, and a node that stopped answering falls
// back to Down through the probe loop). A Corrupt node returns to Up
// only when no corruption report arrived while the plan ran —
// otherwise the plan repaired a moving target, so the node stays
// pinned Corrupt and a fresh Corrupt edge is staged to re-plan it.
// Called by the orchestrator.
func (m *Monitor) RepairDone(node int, ok bool) {
	if !ok {
		return
	}
	m.mu.Lock()
	st := &m.nodes[node]
	switch st.state {
	case Repairing:
		m.stage(*m.applyLocked(node, Up))
		m.counters.Recoveries.Add(1)
	case Corrupt:
		switch {
		case st.corruptSeq != st.corruptPlanned:
			st.corruptPlanned = st.corruptSeq
			m.counters.CorruptEvents.Add(1)
			m.stage(*m.applyLocked(node, Corrupt))
		case m.cfg.Clock.Now().Sub(st.lastCorrupt) >= corruptDwell*m.cfg.Interval:
			m.stage(*m.applyLocked(node, Up))
			m.counters.Recoveries.Add(1)
		default:
			// Quiet plan, but too close to the last report to be sure
			// the node reformed: hold the pin without re-planning and
			// let the probe loop clear it once the dwell passes clean.
			st.pendingClear = true
		}
	}
	m.mu.Unlock()
}

// applyLocked moves node to state `to`, records the timestamp and
// returns the transition to emit. Caller holds m.mu.
func (m *Monitor) applyLocked(node int, to State) *Transition {
	n := &m.nodes[node]
	tr := Transition{Node: node, From: n.state, To: to, At: m.cfg.Clock.Now()}
	n.state = to
	n.lastTransition = tr.At
	n.pendingClear = false
	return &tr
}

// stage queues one transition for the dispatcher. Callers hold m.mu,
// which is what pins queue order to state-application order; the
// nested qmu acquisition is brief and never blocks (the queue is
// unbounded, its depth bounded in practice by 2n transitions per
// probe round), so staging is safe from any goroutine — including
// the transition consumer itself via RepairDone.
func (m *Monitor) stage(tr Transition) {
	m.qmu.Lock()
	if !m.qclosed {
		m.pending = append(m.pending, tr)
	}
	m.qmu.Unlock()
	m.qcond.Signal()
}

// dispatch delivers staged transitions in application order: the
// OnTransition callback first (always from this one goroutine, so
// the callback needs no locking of its own and may call back into
// the monitor), then the channel. Delivery is abandoned when the
// monitor closes.
func (m *Monitor) dispatch() {
	defer m.wg.Done()
	for {
		m.qmu.Lock()
		for len(m.pending) == 0 && !m.qclosed {
			m.qcond.Wait()
		}
		if len(m.pending) == 0 {
			m.qmu.Unlock()
			return
		}
		tr := m.pending[0]
		m.pending = m.pending[1:]
		m.qmu.Unlock()
		if m.cfg.OnTransition != nil {
			m.cfg.OnTransition(tr)
		}
		select {
		case m.transitions <- tr:
		case <-m.ctx.Done():
			return
		}
	}
}

// run is the probe loop: one round of parallel probes every Interval.
func (m *Monitor) run() {
	defer m.wg.Done()
	for clock.Sleep(m.ctx, m.cfg.Clock, m.cfg.Interval) == nil {
		m.probeRound(m.ctx)
	}
}

// probeRound probes every node in parallel and applies the results.
func (m *Monitor) probeRound(ctx context.Context) {
	n := len(m.nodes)
	errs := make([]error, n)
	durs := make([]time.Duration, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, m.cfg.Timeout)
			defer cancel()
			start := time.Now()
			errs[i] = m.probe(pctx, i)
			durs[i] = time.Since(start)
		}(i)
	}
	wg.Wait()
	if ctx.Err() != nil {
		// The probes were cancelled by shutdown; their errors say
		// nothing about the nodes.
		return
	}
	m.counters.Probes.Add(int64(n))
	now := m.cfg.Clock.Now()
	var out []Transition
	m.mu.Lock()
	for i := 0; i < n; i++ {
		out = m.applyProbeLocked(i, errs[i], durs[i], now, out)
	}
	// Stage before releasing m.mu so a racing RepairDone cannot
	// interleave its transition out of application order.
	for _, tr := range out {
		m.stage(tr)
	}
	m.mu.Unlock()
}

// corruptDwell is how many probe intervals a Corrupt node must go
// without a fresh corruption report before a completed repair plan may
// clear the pin. Without the dwell, a plan completing in the gap
// between two reads would clear a node that is still lying and
// Health() would flap up↔corrupt; with it, the pin only lifts once the
// readers and scrubber have had a chance to disagree.
const corruptDwell = 2

// probeEWMAAlpha smooths successful probe durations for the fallback
// brownout latency source.
const probeEWMAAlpha = 0.3

// applyProbeLocked advances one node's state machine with one probe
// result, appending any transitions. Caller holds m.mu.
func (m *Monitor) applyProbeLocked(node int, err error, dur time.Duration, now time.Time, out []Transition) []Transition {
	st := &m.nodes[node]
	st.lastProbe = now
	if err == nil {
		st.failures = 0
		// Fold the probe's duration into the fallback latency source,
		// then consult whichever source is configured.
		if st.probeEWMA == 0 {
			st.probeEWMA = dur
		} else {
			st.probeEWMA = time.Duration(float64(st.probeEWMA)*(1-probeEWMAAlpha) + float64(dur)*probeEWMAAlpha)
		}
		lat, haveLat := st.probeEWMA, st.probeEWMA > 0
		if m.cfg.Latency != nil {
			lat, haveLat = m.cfg.Latency(node)
		}
		st.lastLatency = lat
		switch st.state {
		case Up:
			// Degraded-but-alive: slow answers are a brownout, not a
			// failure — the node stays a full member and no repair is
			// planned.
			if m.cfg.BrownoutLatency > 0 && haveLat && lat > m.cfg.BrownoutLatency {
				m.counters.Brownouts.Add(1)
				out = append(out, *m.applyLocked(node, Brownout))
			}
		case Brownout:
			// Hysteresis: clear only once latency falls well below the
			// threshold, so a node sitting at the line doesn't flap.
			if m.cfg.BrownoutLatency <= 0 || (haveLat && lat <= m.cfg.BrownoutLatency/2) {
				out = append(out, *m.applyLocked(node, Up))
			}
		case Suspect:
			// A false alarm: the node answered before the threshold.
			out = append(out, *m.applyLocked(node, Up))
		case Down:
			// The node is back (restart, healed partition, replaced
			// disk): hand it to the orchestrator for reconvergence.
			out = append(out, *m.applyLocked(node, Repairing))
		case Corrupt:
			// A corrupt node answers probes just fine — liveness says
			// nothing about the bytes it serves. The pin clears only
			// after a repair plan completed AND the node then stayed
			// report-free for the dwell.
			if st.pendingClear && st.corruptSeq == st.corruptPlanned &&
				now.Sub(st.lastCorrupt) >= corruptDwell*m.cfg.Interval {
				out = append(out, *m.applyLocked(node, Up))
				m.counters.Recoveries.Add(1)
			}
		}
		return out
	}
	m.counters.ProbeFailures.Add(1)
	st.failures++
	switch st.state {
	case Up, Brownout:
		// A Brownout node that stops answering altogether takes the
		// same road down as an Up node.
		m.counters.Suspicions.Add(1)
		out = append(out, *m.applyLocked(node, Suspect))
		if st.failures >= m.cfg.Threshold {
			m.counters.DownEvents.Add(1)
			out = append(out, *m.applyLocked(node, Down))
		}
	case Suspect:
		if st.failures >= m.cfg.Threshold {
			m.counters.DownEvents.Add(1)
			out = append(out, *m.applyLocked(node, Down))
		}
	case Repairing, Corrupt:
		// The node died (again) mid-repair: fall straight back to Down
		// once the threshold confirms it, so the orchestrator drops
		// the now-pointless plan. A Corrupt node going Down loses its
		// pin — if it comes back still corrupt, the verified read path
		// re-reports it within a few requests.
		if st.failures >= m.cfg.Threshold {
			m.counters.DownEvents.Add(1)
			out = append(out, *m.applyLocked(node, Down))
		}
	}
	return out
}
