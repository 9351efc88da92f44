package trapquorum

import (
	"context"

	"trapquorum/internal/availability"
	"trapquorum/internal/service"
	"trapquorum/internal/trapezoid"
)

// clusterHandle is the node-management, repair and
// availability-analytics surface Store and ObjectStore share: both are
// views of one service.Fleet over one backend-provided cluster and one
// (n,k)+trapezoid configuration.
type clusterHandle struct {
	n, k    int
	tcfg    trapezoid.Config
	backend Backend
	fleet   *service.Fleet
	heal    *healer // nil unless WithSelfHeal was configured
}

// openFleet provisions the backend's cluster (sized by the placement
// strategy), builds the fleet over it and, with WithSelfHeal, starts
// the self-healing subsystem on the fleet.
func openFleet(ctx context.Context, cfg *config) (clusterHandle, error) {
	tcfg, err := cfg.trapezoidConfig()
	if err != nil {
		return clusterHandle{}, err
	}
	nodes, err := cfg.backend.Open(ctx, cfg.place.Nodes())
	if err != nil {
		return clusterHandle{}, err
	}
	fleet, err := service.NewFleet(nodes, service.Config{
		N: cfg.n, K: cfg.k,
		Shape: cfg.shape, W: cfg.w,
		BlockSize:         cfg.blockSize,
		Placement:         cfg.place,
		Concurrency:       cfg.concurrency,
		CodingParallelism: cfg.codingParallel,
		Hedge:             cfg.hedge,
		NodeGate:          nodeGate(cfg.backend),
	})
	if err != nil {
		cfg.backend.Close()
		return clusterHandle{}, err
	}
	h := clusterHandle{n: cfg.n, k: cfg.k, tcfg: tcfg, backend: cfg.backend, fleet: fleet}
	if cfg.selfHeal != nil {
		if h.heal, err = startSelfHeal(cfg, fleet); err != nil {
			cfg.backend.Close()
			return clusterHandle{}, err
		}
	}
	return h, nil
}

// Close stops the self-healing subsystem (when enabled) and releases
// the backend's nodes. The store is unusable afterwards.
func (h *clusterHandle) Close() error {
	h.heal.Close()
	return h.backend.Close()
}

// Health returns the self-healing subsystem's snapshot: per-node
// liveness state, the repair backlog and the anti-entropy scrub
// position. On a store opened without WithSelfHeal it returns the
// zero report (Enabled false) — except Links, which the transport's
// resilience layer populates with or without a monitor when the
// backend implements LinkReporter.
func (h *clusterHandle) Health() HealthReport {
	r := h.heal.report()
	if lr, ok := h.backend.(LinkReporter); ok {
		r.Links = lr.LinkHealth()
	}
	return r
}

// CodeParams returns the current placement epoch's (n, k) — after an
// ObjectStore recode, the target geometry, shadowing the Open-time
// value the availability analytics keep using.
func (h *clusterHandle) CodeParams() (n, k int) { return h.fleet.CodeParams() }

// NodeCount returns the number of provisioned cluster nodes — the
// Open-time size plus any nodes added by Reconfigure (removed nodes
// keep their ids, so the count never shrinks; see ActiveNodes for the
// serving roster).
func (h *clusterHandle) NodeCount() int { return h.fleet.NodeCount() }

// RepairNode rebuilds every stripe shard placed on cluster node j
// (after the node returns, possibly with a fresh disk) from the
// surviving nodes (exact repair). It returns how many chunks were
// rebuilt.
func (h *clusterHandle) RepairNode(ctx context.Context, j int) (int, error) {
	return h.fleet.RepairClusterNode(ctx, j)
}

// Metrics returns a snapshot of the store-level counters: the
// protocol counters summed over every placement epoch, plus the
// self-heal counters when WithSelfHeal is enabled.
func (h *clusterHandle) Metrics() Metrics {
	m := metricsFromCore(h.fleet.Metrics())
	h.heal.fold(&m)
	h.foldResilience(&m)
	return m
}

// CrashNode fail-stops cluster node j: data survives, operations
// against the node fail until RestartNode. It requires a
// fault-injecting backend (the simulator) and returns an
// ErrNotSupported wrap otherwise — a real fleet's nodes crash on
// their own, they cannot be crashed through the client.
func (h *clusterHandle) CrashNode(j int) error {
	fi, err := faultInjector(h.backend, "CrashNode")
	if err != nil {
		return err
	}
	fi.Crash(j)
	return nil
}

// RestartNode revives cluster node j with its chunks intact. Requires
// a fault-injecting backend (ErrNotSupported otherwise).
func (h *clusterHandle) RestartNode(j int) error {
	fi, err := faultInjector(h.backend, "RestartNode")
	if err != nil {
		return err
	}
	fi.Restart(j)
	return nil
}

// AliveNodes returns how many cluster nodes are currently up.
// Requires a fault-injecting backend (ErrNotSupported otherwise —
// over a real transport, liveness is an observation, not a census;
// probe the nodes or scrub instead).
func (h *clusterHandle) AliveNodes() (int, error) {
	fi, err := faultInjector(h.backend, "AliveNodes")
	if err != nil {
		return 0, err
	}
	return fi.AliveNodes(), nil
}

// WipeNode erases cluster node j's storage (media replacement).
// Requires a fault-injecting backend (ErrNotSupported otherwise). The
// node must be up. Follow with RepairNode.
func (h *clusterHandle) WipeNode(ctx context.Context, j int) error {
	fi, err := faultInjector(h.backend, "WipeNode")
	if err != nil {
		return err
	}
	return fi.Wipe(ctx, j)
}

// WriteAvailability evaluates the paper's equation (8)/(9): the
// probability a block write succeeds when every node is independently
// up with probability p. Identical for the erasure-coded and
// full-replication variants.
func (h *clusterHandle) WriteAvailability(p float64) float64 {
	return availability.Write(h.tcfg, p)
}

// ReadAvailability evaluates the paper's equation (13): the
// probability a block read succeeds at node availability p.
func (h *clusterHandle) ReadAvailability(p float64) (float64, error) {
	return availability.ReadERC(availability.ERCParams{Config: h.tcfg, N: h.n, K: h.k}, p)
}

// ReadAvailabilityFullReplication evaluates equation (10): what the
// same trapezoid would deliver with full replicas instead of parity.
func (h *clusterHandle) ReadAvailabilityFullReplication(p float64) float64 {
	return availability.ReadFR(h.tcfg, p)
}

// StorageOverhead returns the disk used per data block in units of
// block size: n/k (equation 15), versus n−k+1 under full replication
// (equation 14).
func (h *clusterHandle) StorageOverhead() float64 {
	return availability.StorageERC(h.n, h.k)
}

// FullReplicationOverhead returns equation (14)'s n−k+1 for
// comparison.
func (h *clusterHandle) FullReplicationOverhead() float64 {
	return availability.StorageFR(h.n, h.k)
}
