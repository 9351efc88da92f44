package core

import (
	"context"
	"fmt"
	"sync"

	"trapquorum/client"
	"trapquorum/internal/trapezoid"
)

// FRSystem implements TRAP-FR: the original trapezoidal protocol over
// full replication, the baseline the paper compares TRAP-ERC against.
// Every block is replicated verbatim on all Nbnode = n−k+1 trapezoid
// nodes; writes install the full block on at least w_l nodes per
// level, reads version-check r_l nodes of some level and then fetch
// the block from any replica carrying the latest version.
//
// The write path differs from TRAP-ERC only in what travels to the
// quorum: whole blocks instead of parity deltas — which is exactly the
// storage/traffic trade-off of equations (14)/(15).
type FRSystem struct {
	lay   *trapezoid.Layout
	nodes []NodeClient // one per trapezoid position

	mu      sync.Mutex
	blocks  map[uint64]int // block id -> size
	locks   map[uint64]*sync.Mutex
	metrics Metrics
}

// NewFRSystem assembles a full-replication trapezoid system. nodes[p]
// is the replica at trapezoid position p; len(nodes) must equal the
// trapezoid's node count.
func NewFRSystem(cfg trapezoid.Config, nodes []NodeClient) (*FRSystem, error) {
	lay, err := trapezoid.NewLayout(cfg)
	if err != nil {
		return nil, err
	}
	if len(nodes) != lay.NbNodes() {
		return nil, fmt.Errorf("core: got %d nodes, trapezoid needs %d", len(nodes), lay.NbNodes())
	}
	for i, n := range nodes {
		if n == nil {
			return nil, fmt.Errorf("core: node %d is nil", i)
		}
	}
	return &FRSystem{
		lay:    lay,
		nodes:  append([]NodeClient(nil), nodes...),
		blocks: make(map[uint64]int),
		locks:  make(map[uint64]*sync.Mutex),
	}, nil
}

// Metrics returns a snapshot of the protocol counters.
func (s *FRSystem) Metrics() MetricsSnapshot {
	return MetricsSnapshot{
		Writes:       s.metrics.Writes.Load(),
		FailedWrites: s.metrics.FailedWrites.Load(),
		DirectReads:  s.metrics.DirectReads.Load(),
		FailedReads:  s.metrics.FailedReads.Load(),
		Rollbacks:    s.metrics.Rollbacks.Load(),
		Repairs:      s.metrics.Repairs.Load(),
	}
}

// frChunk names block id's replica chunk (identical on every node).
func frChunk(id uint64) client.ChunkID { return client.ChunkID{Stripe: id} }

func (s *FRSystem) blockLock(id uint64) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.locks[id]
	if !ok {
		l = &sync.Mutex{}
		s.locks[id] = l
	}
	return l
}

// SeedBlock installs a block at version 1 on every replica. All nodes
// must be up (initial placement).
func (s *FRSystem) SeedBlock(ctx context.Context, id uint64, data []byte) error {
	if len(data) == 0 {
		return fmt.Errorf("%w: empty block", ErrBlockSize)
	}
	for pos, n := range s.nodes {
		if err := n.PutChunk(ctx, frChunk(id), data, []uint64{1}); err != nil {
			return fmt.Errorf("%w: position %d: %w", ErrSeedIncomplete, pos, err)
		}
	}
	s.mu.Lock()
	s.blocks[id] = len(data)
	s.mu.Unlock()
	return nil
}

// checkVersion runs Step 1 of the read: scan levels until one yields
// r_l version responses; the maximum is the latest version.
func (s *FRSystem) checkVersion(ctx context.Context, id uint64) (version uint64, ok bool) {
	cfg := s.lay.Config()
	for l := 0; l <= cfg.Shape.H; l++ {
		need := cfg.ReadThreshold(l)
		counter := 0
		version = client.NoVersion
		for _, pos := range s.lay.Level(l) {
			vers, _, err := s.nodes[pos].ReadVersions(ctx, frChunk(id))
			if err != nil || len(vers) != 1 {
				continue
			}
			if version == client.NoVersion || vers[0] > version {
				version = vers[0]
			}
			counter++
			if counter == need {
				return version, true
			}
		}
	}
	return 0, false
}

// ReadBlock reads the block: version check, then fetch from any
// replica carrying the latest version (under full replication every
// current replica serves the data directly — the paper's point that
// FR reads need no reconstruction).
func (s *FRSystem) ReadBlock(ctx context.Context, id uint64) ([]byte, uint64, error) {
	s.mu.Lock()
	_, known := s.blocks[id]
	s.mu.Unlock()
	if !known {
		return nil, 0, fmt.Errorf("%w: %d", ErrUnknownStripe, id)
	}
	version, ok := s.checkVersion(ctx, id)
	if !ok {
		if cerr := ctx.Err(); cerr != nil {
			// Nodes stopped answering because the context died, not
			// because the quorum degraded.
			return nil, 0, opErr("read", id, cerr)
		}
		s.metrics.FailedReads.Add(1)
		return nil, 0, fmt.Errorf("%w: no level reached its version check threshold", ErrNotReadable)
	}
	for pos := range s.nodes {
		chunk, err := s.nodes[pos].ReadChunk(ctx, frChunk(id))
		if err != nil || len(chunk.Versions) != 1 {
			continue
		}
		if chunk.Versions[0] >= version {
			s.metrics.DirectReads.Add(1)
			return chunk.Data, chunk.Versions[0], nil
		}
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, 0, opErr("read", id, cerr)
	}
	s.metrics.FailedReads.Add(1)
	return nil, 0, fmt.Errorf("%w: no replica carries version %d", ErrNotReadable, version)
}

// WriteBlock writes the full block to at least w_l replicas on every
// level, rolling back on failure like the ERC variant.
func (s *FRSystem) WriteBlock(ctx context.Context, id uint64, data []byte) error {
	s.mu.Lock()
	size, known := s.blocks[id]
	s.mu.Unlock()
	if !known {
		return fmt.Errorf("%w: %d", ErrUnknownStripe, id)
	}
	if len(data) != size {
		return fmt.Errorf("%w: got %d bytes, block uses %d", ErrBlockSize, len(data), size)
	}
	lock := s.blockLock(id)
	lock.Lock()
	defer lock.Unlock()

	old, oldVersion, err := s.readForUpdate(ctx, id)
	if err != nil {
		s.metrics.FailedWrites.Add(1)
		if cerr := ctx.Err(); cerr != nil {
			return &OpError{Op: "write", Stripe: id, Block: -1, Level: -1, Node: -1, Err: cerr}
		}
		return fmt.Errorf("%w: initial read failed: %v", ErrWriteFailed, err)
	}
	newVersion := oldVersion + 1
	cfg := s.lay.Config()
	var updated []int
	for l := 0; l <= cfg.Shape.H; l++ {
		counter := 0
		for _, pos := range s.lay.Level(l) {
			if cerr := ctx.Err(); cerr != nil {
				// Cancelled mid-quorum: abort without committing.
				s.rollbackFR(id, updated, newVersion, oldVersion, old)
				return &OpError{Op: "write", Stripe: id, Block: -1, Level: l, Node: -1, Err: cerr}
			}
			if err := s.nodes[pos].PutChunk(ctx, frChunk(id), data, []uint64{newVersion}); err != nil {
				continue
			}
			updated = append(updated, pos)
			counter++
		}
		if counter < cfg.W[l] {
			// Roll back our own footprint: restore the old replica.
			s.rollbackFR(id, updated, newVersion, oldVersion, old)
			return fmt.Errorf("%w: level %d reached %d of %d", ErrWriteFailed, l, counter, cfg.W[l])
		}
	}
	s.metrics.Writes.Add(1)
	return nil
}

// rollbackFR restores the old replica on every position this write
// updated, on a detached context (cleanup must outlive the caller's
// context), and counts the failed attempt.
func (s *FRSystem) rollbackFR(id uint64, updated []int, newVersion, oldVersion uint64, old []byte) {
	s.metrics.FailedWrites.Add(1)
	for _, p := range updated {
		_ = s.nodes[p].CompareAndPut(context.Background(), frChunk(id), 0, newVersion, oldVersion, old)
	}
	s.metrics.Rollbacks.Add(1)
}

// readForUpdate is ReadBlock without the metrics bump, used by the
// write path's initial read.
func (s *FRSystem) readForUpdate(ctx context.Context, id uint64) ([]byte, uint64, error) {
	version, ok := s.checkVersion(ctx, id)
	if !ok {
		return nil, 0, fmt.Errorf("%w: version check failed", ErrNotReadable)
	}
	for pos := range s.nodes {
		chunk, err := s.nodes[pos].ReadChunk(ctx, frChunk(id))
		if err != nil || len(chunk.Versions) != 1 {
			continue
		}
		if chunk.Versions[0] >= version {
			return chunk.Data, chunk.Versions[0], nil
		}
	}
	return nil, 0, fmt.Errorf("%w: no replica carries version %d", ErrNotReadable, version)
}

// RepairReplica refreshes the replica at a trapezoid position from the
// freshest reachable copy (version-guarded, like the ERC repair).
func (s *FRSystem) RepairReplica(ctx context.Context, id uint64, pos int) error {
	if pos < 0 || pos >= len(s.nodes) {
		return fmt.Errorf("%w: position %d of %d", ErrBadIndex, pos, len(s.nodes))
	}
	s.mu.Lock()
	_, known := s.blocks[id]
	s.mu.Unlock()
	if !known {
		return fmt.Errorf("%w: %d", ErrUnknownStripe, id)
	}
	var best []byte
	bestVersion := client.NoVersion
	for p := range s.nodes {
		if p == pos {
			continue
		}
		chunk, err := s.nodes[p].ReadChunk(ctx, frChunk(id))
		if err != nil || len(chunk.Versions) != 1 {
			continue
		}
		if bestVersion == client.NoVersion || chunk.Versions[0] > bestVersion {
			bestVersion = chunk.Versions[0]
			best = chunk.Data
		}
	}
	if best == nil {
		return fmt.Errorf("%w: no surviving replica", ErrNotReadable)
	}
	if err := s.nodes[pos].PutChunkIfFresher(ctx, frChunk(id), best, []uint64{bestVersion}); err != nil {
		return err
	}
	s.metrics.Repairs.Add(1)
	return nil
}
