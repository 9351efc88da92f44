package trapquorum

import (
	"context"

	"trapquorum/internal/core"
	"trapquorum/internal/erasure"
)

// Store is the low-level, single-stripe API: an erasure-coded
// quorum-replicated block store over exactly n nodes, exposing the
// protocol's stripe and block operations directly. Most applications
// want ObjectStore (via Open) instead; Store is for callers managing
// stripes themselves and for protocol experiments. It is safe for
// concurrent use.
type Store struct {
	clusterHandle
	sys *core.System
}

// OpenStore validates the configuration, asks the backend for the n
// node clients and assembles the protocol on top. Close must be
// called when done. Placement and block-size options are object-store
// concerns and are ignored here.
func OpenStore(ctx context.Context, opts ...Option) (*Store, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	code, err := erasure.New(cfg.n, cfg.k, erasure.WithParallelism(cfg.codingParallel))
	if err != nil {
		return nil, err
	}
	tcfg, err := cfg.trapezoidConfig()
	if err != nil {
		return nil, err
	}
	nodes, err := cfg.backend.Open(ctx, cfg.n)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(code, tcfg, nodes, core.Options{
		Concurrency: cfg.concurrency,
		Hedge:       cfg.hedge,
		NodeGate:    nodeGate(cfg.backend),
	})
	if err != nil {
		cfg.backend.Close()
		return nil, err
	}
	store := &Store{clusterHandle: newClusterHandle(cfg, tcfg), sys: sys}
	if cfg.selfHeal != nil {
		heal, err := startSelfHeal(cfg, cfg.n, coreTarget{sys: sys})
		if err != nil {
			cfg.backend.Close()
			return nil, err
		}
		store.heal = heal
		// Route corruption observations into the health monitor: the
		// low-level store's placement is the identity, so stripe shard
		// j is cluster node j.
		mon := heal.mon
		sys.SetCorruptionHandler(func(shard int) { mon.ReportCorrupt(shard) })
	}
	return store, nil
}

// WriteObject stores a payload of arbitrary size under the given id,
// splitting it into the stripe's k data blocks. All N nodes must be up
// (initial placement is allocation, not a quorum operation).
func (s *Store) WriteObject(ctx context.Context, id uint64, payload []byte) error {
	return s.sys.WriteObject(ctx, id, payload)
}

// ReadObject reads a payload back through one quorum read per block.
func (s *Store) ReadObject(ctx context.Context, id uint64) ([]byte, error) {
	return s.sys.ReadObject(ctx, id)
}

// SeedStripe installs k explicit equally-sized data blocks as stripe
// id, for callers managing blocks directly.
func (s *Store) SeedStripe(ctx context.Context, id uint64, blocks [][]byte) error {
	return s.sys.SeedStripe(ctx, id, blocks)
}

// WriteBlock updates data block index (0 ≤ index < K) of a stripe via
// Algorithm 1: the quorum write with in-place parity deltas.
func (s *Store) WriteBlock(ctx context.Context, id uint64, index int, data []byte) error {
	return s.sys.WriteBlock(ctx, id, index, data)
}

// ReadBlock reads one data block via Algorithm 2 and reports the
// version served.
func (s *Store) ReadBlock(ctx context.Context, id uint64, index int) ([]byte, uint64, error) {
	return s.sys.ReadBlock(ctx, id, index)
}

// NodeCount returns N, the number of storage nodes.
func (s *Store) NodeCount() int { return s.n }

// RepairNode rebuilds every stripe shard assigned to node j from the
// surviving nodes (exact repair). It returns how many chunks were
// rebuilt.
func (s *Store) RepairNode(ctx context.Context, j int) (int, error) {
	return s.sys.RepairNode(ctx, j)
}

// RepairStripeShard rebuilds a single shard of a single stripe.
func (s *Store) RepairStripeShard(ctx context.Context, id uint64, shard int) error {
	return s.sys.RepairShard(ctx, id, shard)
}

// RepairStripe repairs every stale shard of a stripe, iterating to a
// fixpoint (stale parity needs fresh data shards and vice versa; see
// DESIGN.md's ordering discussion). It returns how many repair calls
// succeeded and which shards were left untouched because they are
// ahead of every rebuildable state.
func (s *Store) RepairStripe(ctx context.Context, id uint64) (repaired int, ahead []int, err error) {
	return s.sys.RepairStripe(ctx, id)
}

// ScrubStripe audits a stripe read-only: it reports the freshest
// consistent version vector, stale/ahead/unreachable shards, and
// byte-level parity mismatches (silent corruption). Pair with
// RepairStripe when it reports degradation.
func (s *Store) ScrubStripe(ctx context.Context, id uint64) (ScrubReport, error) {
	return s.sys.ScrubStripe(ctx, id)
}

// Metrics returns a snapshot of the store-level counters: the
// protocol counters, plus the self-heal counters when WithSelfHeal
// is enabled.
func (s *Store) Metrics() Metrics {
	m := metricsFromCore(s.sys.Metrics())
	s.heal.fold(&m)
	s.foldResilience(&m)
	return m
}
