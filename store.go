package trapquorum

import (
	"context"

	"trapquorum/placement"
)

// Store is the low-level, single-stripe API: an erasure-coded
// quorum-replicated block store over exactly n nodes, exposing the
// protocol's stripe and block operations directly. Every stripe is
// named by its caller and placed shard j on cluster node j. Store is a
// view of the same fleet machinery ObjectStore runs on — one stripe
// table, one repair and self-heal path. Most applications want
// ObjectStore (via Open) instead, which also stores objects with a
// size; Store is for callers managing stripes themselves and for
// protocol experiments. It is safe for concurrent use.
type Store struct {
	clusterHandle
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
	if cfg.place, err = placement.NewRoundRobin(cfg.n); err != nil {
		return nil, err
	}
	h, err := openFleet(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &Store{h}, nil
}

// SeedStripe installs k explicit equally-sized data blocks as stripe
// id, for callers managing blocks directly. All N nodes must be up
// (initial placement is allocation, not a quorum operation).
func (s *Store) SeedStripe(ctx context.Context, id uint64, blocks [][]byte) error {
	return s.fleet.SeedStripe(ctx, id, blocks)
}

// WriteBlock updates data block index (0 ≤ index < K) of a stripe via
// Algorithm 1: the quorum write with in-place parity deltas.
func (s *Store) WriteBlock(ctx context.Context, id uint64, index int, data []byte) error {
	st, sys, err := s.fleet.Stripe(id)
	if err != nil {
		return err
	}
	return sys.WriteBlock(ctx, st, index, data)
}

// ReadBlock reads one data block via Algorithm 2 and reports the
// version served.
func (s *Store) ReadBlock(ctx context.Context, id uint64, index int) ([]byte, uint64, error) {
	st, sys, err := s.fleet.Stripe(id)
	if err != nil {
		return nil, 0, err
	}
	return sys.ReadBlock(ctx, st, index)
}

// RepairStripeShard rebuilds a single shard of a single stripe.
func (s *Store) RepairStripeShard(ctx context.Context, id uint64, shard int) error {
	st, sys, err := s.fleet.Stripe(id)
	if err != nil {
		return err
	}
	return sys.RepairShard(ctx, st, shard)
}

// RepairStripe repairs every stale shard of a stripe, iterating to a
// fixpoint (stale parity needs fresh data shards and vice versa; see
// DESIGN.md's ordering discussion). It returns how many repair calls
// succeeded and which shards were left untouched because they are
// ahead of every rebuildable state.
func (s *Store) RepairStripe(ctx context.Context, id uint64) (repaired int, ahead []int, err error) {
	st, sys, err := s.fleet.Stripe(id)
	if err != nil {
		return 0, nil, err
	}
	return sys.RepairStripe(ctx, st)
}

// ScrubStripe audits a stripe read-only: it reports the freshest
// consistent version vector, stale/ahead/unreachable shards, and
// byte-level parity mismatches (silent corruption). Pair with
// RepairStripe when it reports degradation.
func (s *Store) ScrubStripe(ctx context.Context, id uint64) (ScrubReport, error) {
	st, sys, err := s.fleet.Stripe(id)
	if err != nil {
		return ScrubReport{}, err
	}
	return sys.ScrubStripe(ctx, st)
}
