package trapquorum

import (
	"context"
	"fmt"
	"time"

	"trapquorum/client"
	"trapquorum/internal/core"
	"trapquorum/internal/health"
	"trapquorum/internal/repairsched"
	"trapquorum/internal/service"
)

// NodeProber is the optional Backend extension the self-healing
// monitor probes liveness through: ProbeNode answers nil when cluster
// node `node` is reachable and an error (conventionally wrapping
// client.ErrNodeDown) when it is not. The probe must be cheap — it is
// issued for every node on every probe interval — and must honour the
// context, which carries the per-probe timeout.
//
// SimBackend implements it from the simulator's fail-stop flags;
// NetBackend implements it as a per-node TCP ping. WithSelfHeal
// requires the configured backend to implement this interface and
// Open fails with an ErrNotSupported wrap otherwise.
type NodeProber interface {
	// ProbeNode checks that cluster node `node` is reachable.
	ProbeNode(ctx context.Context, node int) error
}

// NodeState is a position of the per-node liveness state machine the
// self-healing monitor maintains: NodeUp → NodeSuspect → NodeDown →
// NodeRepairing → NodeUp. See DESIGN.md "Self-healing" for the full
// transition diagram.
type NodeState = health.State

// The liveness states of a monitored node.
const (
	// NodeUp: the node answers probes; no background work is needed.
	NodeUp NodeState = health.Up
	// NodeSuspect: recent probes failed but fewer than the suspicion
	// threshold in a row; the protocol still talks to the node.
	NodeSuspect NodeState = health.Suspect
	// NodeDown: the suspicion threshold was reached; the node is
	// considered failed until it answers again.
	NodeDown NodeState = health.Down
	// NodeRepairing: the node answers again after being down and the
	// orchestrator is rebuilding the chunks placed on it.
	NodeRepairing NodeState = health.Repairing
	// NodeCorrupt: the node is alive but was observed serving bytes
	// its peers' cross-checksum records disavow (bit-rot or a lying
	// node). Probe success never clears it; the orchestrator rebuilds
	// the node's chunks and the pin lifts only when no further
	// corruption is observed during the rebuild — a persistently
	// corrupt node stays pinned here. See DESIGN.md "Verified reads".
	NodeCorrupt NodeState = health.Corrupt
	// NodeBrownout: the node answers probes, but slowly — its smoothed
	// link latency exceeds SelfHeal.BrownoutLatency. Degraded, not
	// down: the node stays a full quorum member and no repair is
	// planned; the state clears itself (with hysteresis) once latency
	// recovers, and a browned-out node that stops answering falls
	// through Suspect to Down like any other.
	NodeBrownout NodeState = health.Brownout
)

// NodeTransition is one state-machine edge of one node, delivered to
// the SelfHeal.OnTransition observer.
type NodeTransition = health.Transition

// NodeHealth is the externally visible liveness status of one node,
// as reported by Health().
type NodeHealth = health.NodeStatus

// SelfHeal configures the self-healing subsystem enabled by
// WithSelfHeal: a failure-detecting monitor probing every cluster
// node, and a repair orchestrator that rebuilds the chunks of
// returned nodes and runs periodic anti-entropy scrubs. Zero fields
// take the documented defaults, so WithSelfHeal(trapquorum.SelfHeal{})
// enables the subsystem fully tuned for a LAN fleet.
type SelfHeal struct {
	// ProbeInterval is the pause between liveness probe rounds
	// (default 500ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds each individual probe (default:
	// ProbeInterval).
	ProbeTimeout time.Duration
	// SuspicionThreshold is how many consecutive probes must fail
	// before a node is declared down (default 3). Raise it on flaky
	// networks to trade detection latency for fewer false alarms.
	SuspicionThreshold int
	// RepairConcurrency bounds the in-flight background chunk repairs
	// (default 2), keeping reconvergence I/O off the foreground path.
	RepairConcurrency int
	// RepairRetry is the pause before retrying a node whose repair
	// plan had failures (default 2s).
	RepairRetry time.Duration
	// ScrubInterval is the pause between anti-entropy scrub passes
	// (default 1m). Negative disables scrubbing; the monitor and
	// node-repair orchestration keep running.
	ScrubInterval time.Duration
	// ScrubJitter randomises each scrub pause by ±Jitter·Interval
	// (default 0.2) so stores sharing a fleet do not scrub in
	// lockstep.
	ScrubJitter float64
	// ScrubPace is the minimum gap between consecutive stripe audits
	// within a pass (default 2ms) — the rate limit on scrub reads.
	ScrubPace time.Duration
	// BrownoutLatency, when positive, enables brownout detection: a
	// node whose smoothed link latency exceeds it is reported
	// NodeBrownout (degraded, not down — no repair is planned), and
	// returns to NodeUp once latency drops below half the threshold.
	// The latency source is the backend's per-node EWMA over real
	// operations when the backend implements LatencyReporter
	// (NetBackend does); otherwise the monitor's own probe durations.
	// Zero disables brownout detection (the default).
	BrownoutLatency time.Duration
	// OnTransition, when non-nil, observes every liveness transition
	// in application order (logging, tests). It is invoked from one
	// dedicated goroutine — never concurrently with itself — and may
	// call back into the store (Health, Metrics). Keep it fast.
	OnTransition func(NodeTransition)
}

// WithSelfHeal enables the self-healing subsystem: liveness
// monitoring of every cluster node, automatic repair of nodes that
// return after a failure (fresh disk included), and periodic
// anti-entropy scrubs that find and heal degradation probes cannot
// see. Requires a backend implementing NodeProber (SimBackend and
// NetBackend both do); Open fails with an ErrNotSupported wrap
// otherwise. Inspect the subsystem at runtime through Health() and
// the self-heal counters folded into Metrics().
func WithSelfHeal(sh SelfHeal) Option {
	return func(c *config) {
		if sh.ProbeInterval < 0 || sh.ProbeTimeout < 0 || sh.RepairRetry < 0 || sh.ScrubPace < 0 || sh.BrownoutLatency < 0 {
			c.errs = append(c.errs, fmt.Errorf(
				"trapquorum: WithSelfHeal: negative durations (probe %v/%v, retry %v, pace %v, brownout %v)",
				sh.ProbeInterval, sh.ProbeTimeout, sh.RepairRetry, sh.ScrubPace, sh.BrownoutLatency))
			return
		}
		if sh.SuspicionThreshold < 0 || sh.RepairConcurrency < 0 {
			c.errs = append(c.errs, fmt.Errorf(
				"trapquorum: WithSelfHeal: negative threshold (%d) or concurrency (%d)",
				sh.SuspicionThreshold, sh.RepairConcurrency))
			return
		}
		if sh.ScrubJitter < 0 || sh.ScrubJitter >= 1 {
			c.errs = append(c.errs, fmt.Errorf(
				"trapquorum: WithSelfHeal: scrub jitter %v outside [0, 1)", sh.ScrubJitter))
			return
		}
		c.selfHeal = &sh
	}
}

// ScrubProgress reports the anti-entropy scrubber's position, inside
// a Health() snapshot.
type ScrubProgress struct {
	// Passes counts completed anti-entropy passes.
	Passes int64
	// Audited is the number of stripes audited so far in the
	// in-progress pass (0 when no pass is running).
	Audited int
	// Total is the stripe count of the in-progress pass (0 when no
	// pass is running).
	Total int
	// DegradedFound counts repair tasks found by scrubbing, across
	// all passes.
	DegradedFound int64
}

// HealthReport is the Health() snapshot of the self-healing
// subsystem: per-node liveness, the repair backlog and the scrub
// position. The zero value (Enabled false) is returned when the store
// was opened without WithSelfHeal.
type HealthReport struct {
	// Enabled reports whether WithSelfHeal was configured.
	Enabled bool
	// Nodes is the per-node liveness status, indexed by cluster node.
	Nodes []NodeHealth
	// RepairBacklog is the number of repair tasks queued or
	// executing.
	RepairBacklog int
	// Scrub is the anti-entropy scrubber's position.
	Scrub ScrubProgress
	// Links is the per-node-link resilience snapshot (breaker state,
	// latency EWMA, retry counters), in cluster-node order, when the
	// backend implements LinkReporter (NetBackend does); nil
	// otherwise. Unlike the fields above, Links is populated even on a
	// store opened without WithSelfHeal — breakers live in the
	// transport and need no monitor.
	Links []client.LinkHealth
	// Migration is the reconfiguration snapshot: the fleet's placement
	// epochs and, while a migration drains, its progress. Like Links it
	// is populated with or without WithSelfHeal, on Open (not OpenStore)
	// stores.
	Migration MigrationReport
}

// Degraded lists the nodes currently not NodeUp — the one-line answer
// to "is the fleet healthy".
func (r HealthReport) Degraded() []int {
	var out []int
	for _, n := range r.Nodes {
		if n.State != NodeUp {
			out = append(out, n.Node)
		}
	}
	return out
}

// healer bundles the monitor and orchestrator a self-healing store
// runs; nil when self-healing is disabled.
type healer struct {
	mon *health.Monitor
	orc *repairsched.Orchestrator
}

// startSelfHeal assembles and starts the subsystem on the fleet:
// the monitor probes every cluster node, the orchestrator repairs and
// scrubs the fleet, and the fleet's corruption observations, named by
// cluster node, feed the monitor.
func startSelfHeal(cfg *config, fleet *service.Fleet) (*healer, error) {
	prober, ok := cfg.backend.(NodeProber)
	if !ok {
		return nil, fmt.Errorf(
			"%w: WithSelfHeal needs a backend implementing NodeProber; %T is not one",
			ErrNotSupported, cfg.backend)
	}
	sh := cfg.selfHeal
	hcfg := health.Config{
		Interval:        sh.ProbeInterval,
		Timeout:         sh.ProbeTimeout,
		Threshold:       sh.SuspicionThreshold,
		BrownoutLatency: sh.BrownoutLatency,
		OnTransition:    sh.OnTransition,
	}
	// Brownout detection prefers the transport's per-node latency EWMA
	// over real operations; the monitor falls back to its own probe
	// durations when the backend has none to offer.
	if lr, ok := cfg.backend.(LatencyReporter); ok {
		hcfg.Latency = lr.NodeLatency
	}
	mon, err := health.New(fleet.NodeCount(), prober.ProbeNode, hcfg)
	if err != nil {
		return nil, err
	}
	orc := repairsched.New(fleet, mon, repairsched.Config{
		RepairConcurrency: sh.RepairConcurrency,
		RetryInterval:     sh.RepairRetry,
		ScrubInterval:     sh.ScrubInterval,
		ScrubJitter:       sh.ScrubJitter,
		ScrubPace:         sh.ScrubPace,
	})
	orc.Start()
	mon.Start()
	fleet.SetCorruptionHandler(mon.ReportCorrupt)
	return &healer{mon: mon, orc: orc}, nil
}

// Close stops the orchestrator (no new repairs, in-flight ones
// settle) and then the monitor. Nil-safe.
func (h *healer) Close() {
	if h == nil {
		return
	}
	h.orc.Close()
	h.mon.Close()
}

// report builds the public Health snapshot. Nil-safe.
func (h *healer) report() HealthReport {
	if h == nil {
		return HealthReport{}
	}
	st := h.orc.Status()
	return HealthReport{
		Enabled:       true,
		Nodes:         h.mon.Snapshot(),
		RepairBacklog: st.Backlog + st.InFlight,
		Scrub: ScrubProgress{
			Passes:        st.ScrubPasses,
			Audited:       st.ScrubAudited,
			Total:         st.ScrubTotal,
			DegradedFound: st.ScrubDegraded,
		},
	}
}

// fold adds the self-heal counters into a Metrics snapshot. Nil-safe.
func (h *healer) fold(m *Metrics) {
	if h == nil {
		return
	}
	mc := h.mon.Counters()
	m.Probes = mc.Probes
	m.ProbeFailures = mc.ProbeFailures
	m.Suspicions = mc.Suspicions
	m.DownEvents = mc.DownEvents
	m.Recoveries = mc.Recoveries
	m.CorruptReports = mc.CorruptReports
	m.CorruptEvents = mc.CorruptEvents
	m.Brownouts = mc.Brownouts
	oc := h.orc.Counters()
	m.AutoRepairs = oc.Repairs
	m.AutoRepairFailures = oc.RepairFailures
	m.ScrubPasses = oc.ScrubPasses
	m.ScrubStripes = oc.ScrubStripes
	m.ScrubDegraded = oc.ScrubDegraded
}

// metricsFromCore copies the protocol counters into the public
// Metrics shape (the self-heal counters are folded in separately).
func metricsFromCore(m core.MetricsSnapshot) Metrics {
	return Metrics{
		Writes:        m.Writes,
		FailedWrites:  m.FailedWrites,
		DirectReads:   m.DirectReads,
		DecodeReads:   m.DecodeReads,
		FailedReads:   m.FailedReads,
		Rollbacks:     m.Rollbacks,
		Repairs:       m.Repairs,
		HedgedRPCs:    m.HedgedRPCs,
		CorruptShards: m.CorruptShards,
	}
}
