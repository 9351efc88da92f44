package trapquorum

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"trapquorum/internal/core"
	"trapquorum/internal/erasure"
	"trapquorum/internal/repairsched"
)

// Store is the low-level, single-stripe API: an erasure-coded
// quorum-replicated block store over exactly n nodes, exposing the
// protocol's stripe and block operations directly. Most applications
// want ObjectStore (via Open) instead; Store is for callers managing
// stripes themselves and for protocol experiments. It is safe for
// concurrent use.
type Store struct {
	clusterHandle
	tab *stripeTable
}

// stripeTable is the low-level store's directory: the handle of every
// stripe its caller named — all placed identically, shard j on cluster
// node j — with WriteObject's payload sizes. It is also the store's
// repair target.
type stripeTable struct {
	sys   *core.System
	nodes []int // the identity placement every handle shares
	sweep int   // fan-out bound of the node-wide repair sweep

	mu      sync.Mutex
	stripes map[uint64]storedStripe
}

// storedStripe is one caller-named stripe: its handle and, when
// WriteObject stored it, the payload size ReadObject trims to (-1 for
// a stripe seeded block by block).
type storedStripe struct {
	core.Stripe
	size int
}

var _ repairsched.Target = (*stripeTable)(nil)

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
	tab := &stripeTable{
		sys:     sys,
		nodes:   make([]int, cfg.n),
		sweep:   core.BulkLimit(cfg.concurrency),
		stripes: make(map[uint64]storedStripe),
	}
	for j := range tab.nodes {
		tab.nodes[j] = j
	}
	store := &Store{clusterHandle: newClusterHandle(cfg, tcfg), tab: tab}
	if cfg.selfHeal != nil {
		heal, err := startSelfHeal(cfg, cfg.n, tab)
		if err != nil {
			cfg.backend.Close()
			return nil, err
		}
		store.heal = heal
		// Route corruption observations, named by cluster node, into the
		// health monitor.
		sys.SetCorruptionHandler(heal.mon.ReportCorrupt)
	}
	return store, nil
}

// WriteObject stores a payload of arbitrary size under the given id,
// splitting it into the stripe's k data blocks. All N nodes must be up
// (initial placement is allocation, not a quorum operation).
func (s *Store) WriteObject(ctx context.Context, id uint64, payload []byte) error {
	return s.tab.seed(ctx, id, s.tab.sys.Code().Split(payload), len(payload))
}

// ReadObject reads a payload back through one quorum read per block.
func (s *Store) ReadObject(ctx context.Context, id uint64) ([]byte, error) {
	st, err := s.tab.get(id)
	if err != nil || st.size < 0 {
		return nil, fmt.Errorf("%w: %d has no object mapping", ErrUnknownStripe, id)
	}
	code := s.tab.sys.Code()
	blocks := make([][]byte, code.K())
	for i := range blocks {
		data, _, err := s.tab.sys.ReadBlock(ctx, st.Stripe, i)
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
		blocks[i] = data
	}
	return code.Join(blocks, st.size)
}

// SeedStripe installs k explicit equally-sized data blocks as stripe
// id, for callers managing blocks directly.
func (s *Store) SeedStripe(ctx context.Context, id uint64, blocks [][]byte) error {
	return s.tab.seed(ctx, id, blocks, -1)
}

// WriteBlock updates data block index (0 ≤ index < K) of a stripe via
// Algorithm 1: the quorum write with in-place parity deltas.
func (s *Store) WriteBlock(ctx context.Context, id uint64, index int, data []byte) error {
	st, err := s.tab.get(id)
	if err != nil {
		return err
	}
	return s.tab.sys.WriteBlock(ctx, st.Stripe, index, data)
}

// ReadBlock reads one data block via Algorithm 2 and reports the
// version served.
func (s *Store) ReadBlock(ctx context.Context, id uint64, index int) ([]byte, uint64, error) {
	st, err := s.tab.get(id)
	if err != nil {
		return nil, 0, err
	}
	return s.tab.sys.ReadBlock(ctx, st.Stripe, index)
}

// NodeCount returns N, the number of storage nodes.
func (s *Store) NodeCount() int { return s.n }

// RepairNode rebuilds every stripe shard assigned to node j from the
// surviving nodes (exact repair). It returns how many chunks were
// rebuilt.
func (s *Store) RepairNode(ctx context.Context, j int) (int, error) {
	t := s.tab
	t.mu.Lock()
	stripes := make([]core.Stripe, 0, len(t.stripes))
	for _, st := range t.stripes {
		stripes = append(stripes, st.Stripe)
	}
	t.mu.Unlock()
	return core.RepairSweep(ctx, t.sweep, j, stripes, func(int) *core.System { return t.sys })
}

// RepairStripeShard rebuilds a single shard of a single stripe.
func (s *Store) RepairStripeShard(ctx context.Context, id uint64, shard int) error {
	st, err := s.tab.get(id)
	if err != nil {
		return err
	}
	return s.tab.sys.RepairShard(ctx, st.Stripe, shard)
}

// RepairStripe repairs every stale shard of a stripe, iterating to a
// fixpoint (stale parity needs fresh data shards and vice versa; see
// DESIGN.md's ordering discussion). It returns how many repair calls
// succeeded and which shards were left untouched because they are
// ahead of every rebuildable state.
func (s *Store) RepairStripe(ctx context.Context, id uint64) (repaired int, ahead []int, err error) {
	st, err := s.tab.get(id)
	if err != nil {
		return 0, nil, err
	}
	return s.tab.sys.RepairStripe(ctx, st.Stripe)
}

// ScrubStripe audits a stripe read-only: it reports the freshest
// consistent version vector, stale/ahead/unreachable shards, and
// byte-level parity mismatches (silent corruption). Pair with
// RepairStripe when it reports degradation.
func (s *Store) ScrubStripe(ctx context.Context, id uint64) (ScrubReport, error) {
	st, err := s.tab.get(id)
	if err != nil {
		return ScrubReport{}, err
	}
	return s.tab.sys.ScrubStripe(ctx, st.Stripe)
}

// Metrics returns a snapshot of the store-level counters: the
// protocol counters, plus the self-heal counters when WithSelfHeal
// is enabled.
func (s *Store) Metrics() Metrics {
	m := metricsFromCore(s.tab.sys.Metrics())
	s.heal.fold(&m)
	s.foldResilience(&m)
	return m
}

// seed installs blocks as stripe id on the identity placement and
// records its handle; size is WriteObject's payload size, -1 for none.
func (t *stripeTable) seed(ctx context.Context, id uint64, blocks [][]byte, size int) error {
	st := core.Stripe{ID: id, Nodes: t.nodes}
	if len(blocks) > 0 {
		st.BlockSize = len(blocks[0])
	}
	if err := t.sys.SeedStripe(ctx, st, blocks); err != nil {
		return err
	}
	t.mu.Lock()
	t.stripes[id] = storedStripe{st, size}
	t.mu.Unlock()
	return nil
}

// get returns stripe id's entry; ErrUnknownStripe when the caller
// never seeded it.
func (t *stripeTable) get(id uint64) (storedStripe, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.stripes[id]
	if !ok {
		return storedStripe{}, fmt.Errorf("%w: %d", ErrUnknownStripe, id)
	}
	return st, nil
}

// identityNode maps a shard index to itself — the low-level store's
// placement, where stripe shard j always lives on cluster node j.
func identityNode(shard int) int { return shard }

// PlanNodeRepairs implements repairsched.Target: every stripe keeps
// shard `node` on cluster node `node`.
func (t *stripeTable) PlanNodeRepairs(node int, down func(int) bool) []repairsched.Task {
	stripes := t.Stripes()
	lost := repairsched.LostCount(len(t.nodes), identityNode, down)
	tasks := make([]repairsched.Task, 0, len(stripes))
	for _, stripe := range stripes {
		tasks = append(tasks, repairsched.Task{Stripe: stripe, Shard: node, Node: node, Priority: lost})
	}
	return tasks
}

// Repair implements repairsched.Target.
func (t *stripeTable) Repair(ctx context.Context, task repairsched.Task) error {
	st, err := t.get(task.Stripe)
	if err != nil {
		return nil // never seeded: nothing to rebuild
	}
	return t.sys.RepairShard(ctx, st.Stripe, task.Shard)
}

// Stripes implements repairsched.Target.
func (t *stripeTable) Stripes() []uint64 {
	t.mu.Lock()
	out := make([]uint64, 0, len(t.stripes))
	for id := range t.stripes {
		out = append(out, id)
	}
	t.mu.Unlock()
	slices.Sort(out)
	return out
}

// ScrubStripe implements repairsched.Target through the shared
// repairable-degradation policy (repairsched.DegradationTasks).
func (t *stripeTable) ScrubStripe(ctx context.Context, stripe uint64, down func(int) bool) ([]repairsched.Task, error) {
	st, err := t.get(stripe)
	if err != nil {
		return nil, nil
	}
	rep, err := t.sys.ScrubStripe(ctx, st.Stripe)
	if err != nil {
		return nil, err
	}
	return repairsched.DegradationTasks(stripe, len(t.nodes),
		rep.StaleShards, rep.UnreachableShards, rep.CorruptShards, identityNode, down), nil
}
