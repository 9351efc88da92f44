// Package core implements the paper's contribution: the trapezoid
// quorum protocol dedicated to (n,k) MDS erasure-coded storage
// (TRAP-ERC), together with its full-replication sibling (TRAP-FR).
//
// For each data block b_i of a stripe, the protocol organises the node
// holding the original block (trapezoid position 0, always at level 0)
// and the n−k parity nodes on a logical trapezoid. Writes follow
// Algorithm 1: the data node receives the new block, every reachable
// parity node whose version matches receives the delta
// α_{j,i}·(x−old), and the write commits only if every level reaches
// its write threshold w_l. The old value and version come from line
// 15's read, or — when this coordinator committed the block last and
// still holds what it wrote — from its block cache, which makes the
// write one round: the data node's put is then conditional on the
// cached version as well, and any refusal falls back to the read.
// Reads follow Algorithm 2: version vectors are collected level by
// level until some level yields r_l = s_l−w_l+1 answers; the block is
// then served directly by its data node when fresh, or decoded from
// any k mutually consistent up-to-date shards otherwise.
//
// Deviation from the paper, documented in DESIGN.md: Algorithm 1 as
// published leaves partially-applied updates behind when a write
// fails mid-quorum ("failed-write residue"), which can alias two
// different contents under one version number. This implementation
// (a) makes the parity version-check-and-add atomic per node instead
// of the paper's racy check-then-add, and (b) rolls back its own
// partial updates on write failure, best-effort. The residue hazard
// itself is reproduced and demonstrated in the test suite.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"trapquorum/client"
	"trapquorum/internal/blockpool"
	"trapquorum/internal/erasure"
	"trapquorum/internal/trapezoid"
)

// Protocol-level errors.
var (
	// ErrWriteFailed is Algorithm 1's FAIL: some level could not
	// reach its write threshold.
	ErrWriteFailed = errors.New("core: write quorum not reached")
	// ErrNotReadable is Algorithm 2's ∅: no level reached its version
	// check threshold, or no consistent decode set exists.
	ErrNotReadable = errors.New("core: block not readable")
	// ErrUnknownStripe reports an operation on a stripe that was
	// never seeded: for a System, a handle that places no stripe.
	ErrUnknownStripe = errors.New("core: unknown stripe")
	// ErrBlockSize reports a write whose payload does not match the
	// stripe's block size.
	ErrBlockSize = errors.New("core: block size mismatch")
	// ErrBadIndex reports an out-of-range data block index.
	ErrBadIndex = errors.New("core: data block index out of range")
	// ErrSeedIncomplete reports a bootstrap that could not reach
	// every node.
	ErrSeedIncomplete = errors.New("core: seeding requires all stripe nodes up")
)

// NodeClient is the per-node RPC surface the protocol uses — the
// public, transport-agnostic contract of the client package. The
// simulator's nodes implement it; external backends implement it over
// their own transport; tests substitute fault-injecting fakes.
type NodeClient = client.NodeClient

// OpError is the typed wrapper of the protocol's error taxonomy: it
// records which operation failed and where (stripe, data block,
// trapezoid level, node), while errors.Is keeps seeing the sentinel —
// ErrWriteFailed, ErrNotReadable, context.Canceled,
// context.DeadlineExceeded — through Unwrap.
type OpError struct {
	// Op names the protocol operation: "write", "read", "seed",
	// "repair", "scrub".
	Op string
	// Stripe is the stripe the operation addressed.
	Stripe uint64
	// Block is the data block index, or -1 when not applicable.
	Block int
	// Level is the trapezoid level being serviced when the operation
	// failed, or -1 when not applicable.
	Level int
	// Node is the stripe shard/node involved, or -1 when not
	// applicable.
	Node int
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *OpError) Error() string {
	msg := fmt.Sprintf("core: %s stripe %d", e.Op, e.Stripe)
	if e.Block >= 0 {
		msg += fmt.Sprintf(" block %d", e.Block)
	}
	if e.Level >= 0 {
		msg += fmt.Sprintf(" level %d", e.Level)
	}
	if e.Node >= 0 {
		msg += fmt.Sprintf(" node %d", e.Node)
	}
	return msg + ": " + e.Err.Error()
}

// Unwrap exposes the underlying cause to errors.Is/errors.As.
func (e *OpError) Unwrap() error { return e.Err }

// opErr builds an OpError with no block/level/node detail.
func opErr(op string, stripe uint64, err error) *OpError {
	return &OpError{Op: op, Stripe: stripe, Block: -1, Level: -1, Node: -1, Err: err}
}

// Metrics aggregates protocol-level counters. The split between
// DirectReads and DecodeReads mirrors the P1/P2 decomposition of the
// paper's equation (13).
type Metrics struct {
	Writes       atomic.Int64
	FailedWrites atomic.Int64
	DirectReads  atomic.Int64
	DecodeReads  atomic.Int64
	FailedReads  atomic.Int64
	Rollbacks    atomic.Int64
	Repairs      atomic.Int64
	HedgedRPCs   atomic.Int64
	// OneRoundWrites counts committed writes that skipped line 15's
	// read because the block cache held the block.
	OneRoundWrites atomic.Int64
	// CacheFallbacks counts one-round attempts that failed and fell back
	// to the two-round write; the fallback's own outcome is counted in
	// Writes or FailedWrites.
	CacheFallbacks atomic.Int64
	// CorruptShards counts corruption observations: shards whose
	// content disagreed with the cross-checksum record majority, or
	// whose node answered client.ErrCorrupt. One lying node read
	// repeatedly counts once per observation, not once per node.
	CorruptShards atomic.Int64
}

// MetricsSnapshot is a plain-value copy of Metrics.
type MetricsSnapshot struct {
	Writes        int64
	FailedWrites  int64
	DirectReads   int64
	DecodeReads   int64
	FailedReads   int64
	Rollbacks     int64
	Repairs       int64
	HedgedRPCs    int64
	CorruptShards int64
	// OneRoundWrites and CacheFallbacks: see Metrics.
	OneRoundWrites int64
	CacheFallbacks int64
}

// Add folds another snapshot's counters into m.
func (m *MetricsSnapshot) Add(o MetricsSnapshot) {
	m.Writes += o.Writes
	m.FailedWrites += o.FailedWrites
	m.DirectReads += o.DirectReads
	m.DecodeReads += o.DecodeReads
	m.FailedReads += o.FailedReads
	m.Rollbacks += o.Rollbacks
	m.Repairs += o.Repairs
	m.HedgedRPCs += o.HedgedRPCs
	m.CorruptShards += o.CorruptShards
	m.OneRoundWrites += o.OneRoundWrites
	m.CacheFallbacks += o.CacheFallbacks
}

// Options configures a System.
type Options struct {
	// DisableRollback turns off the best-effort rollback of partial
	// writes, reproducing the paper's Algorithm 1 verbatim — line 15's
	// read included: the block cache is off. Used by the residue-hazard
	// tests and ablation benches.
	DisableRollback bool
	// Concurrency bounds the in-flight per-node RPCs of one quorum
	// operation. 0 (the default) contacts every node of the operation
	// at once; 1 serialises RPCs, reproducing the pre-concurrent
	// engine for comparison benchmarks.
	Concurrency int
	// Hedge enables tail-latency hedging of read-path RPCs; the zero
	// value disables it. See HedgeConfig.
	Hedge HedgeConfig
	// NodeGate, when non-nil, is consulted before every RPC with the
	// cluster node index (NewSystem's node slice index, whichever shard
	// of whichever stripe the RPC serves): false fails the RPC locally
	// with ErrNodeDown instead of touching the transport. Backends with
	// per-node circuit breakers plug their breaker state in here, so
	// fan-out and hedging stop burning RPCs — and hedge slots — on nodes
	// known to be bad: a gated node fails before any hedge timer fires,
	// so it is never a useful hedge target, and the quorum engine decodes
	// around it exactly like a fail-stopped node. Must be fast and safe
	// for concurrent use.
	NodeGate func(node int) bool
	// Epoch, when non-zero, stamps every RPC the system issues with
	// this placement epoch (client.WithEpoch): epoch-guarding nodes
	// reject the RPC once the epoch is retired, fencing a coordinator
	// that reconfigured past this system. One System serves one epoch,
	// so the epoch is a constant of the system.
	Epoch uint64
}

// Stripe is the handle of one placed stripe: its id, the cluster node
// of each shard (Nodes[j] holds shard j, so len(Nodes) is the code's
// n) and its block size. Which nodes hold a stripe is an input to
// Algorithms 1 and 2, not protocol state — a System keeps no record of
// its stripes; the caller's directory owns the handles.
type Stripe struct {
	ID        uint64
	Nodes     []int
	BlockSize int
}

// System is a TRAP-ERC storage system: an (n,k) code, a trapezoid
// configuration over n−k+1 positions, and the cluster's node clients,
// over which each operation's stripe handle places the n shards. It is
// safe for concurrent use; writes to the same (stripe, block) are
// serialised by a per-block lock (the paper assumes classical
// concurrency control above the protocol). It is the only coordinator
// writing its stripes: its block cache remembers what it committed, and
// a write by anyone else costs the next write of that block a fallback
// round (DESIGN.md §2.5).
type System struct {
	code  *erasure.Code
	lay   *trapezoid.Layout
	nodes []NodeClient // by cluster node
	opts  Options

	mu    sync.Mutex
	locks map[blockKey]*blockLock // blocks a writer holds or waits on
	cache *blockCache             // nil with DisableRollback

	metrics   Metrics
	hedge     *hedger // nil when hedging is disabled
	corruptFn atomic.Pointer[func(node int)]
}

type blockKey struct {
	stripe uint64
	block  int
}

// blockLock is one entry of the per-block writer lock table.
type blockLock struct {
	sync.Mutex
	refs int // holders and waiters; guarded by System.mu
}

// NewSystem assembles a System over a cluster: nodes[j] is the client
// of cluster node j, at least n of them. The trapezoid must hold
// exactly n−k+1 positions (equation 5).
func NewSystem(code *erasure.Code, cfg trapezoid.Config, nodes []NodeClient, opts Options) (*System, error) {
	if code == nil {
		return nil, errors.New("core: nil code")
	}
	if opts.Concurrency < 0 {
		return nil, fmt.Errorf("core: concurrency %d invalid (need >= 0)", opts.Concurrency)
	}
	if opts.Hedge.Quantile < 0 || opts.Hedge.Quantile >= 1 || opts.Hedge.Delay < 0 {
		return nil, fmt.Errorf("core: hedge config delay=%v quantile=%v invalid (need delay >= 0, 0 <= quantile < 1)",
			opts.Hedge.Delay, opts.Hedge.Quantile)
	}
	lay, err := trapezoid.NewLayout(cfg)
	if err != nil {
		return nil, err
	}
	if got, want := lay.NbNodes(), code.N()-code.K()+1; got != want {
		return nil, fmt.Errorf("core: trapezoid holds %d positions, need n-k+1 = %d", got, want)
	}
	if len(nodes) < code.N() {
		return nil, fmt.Errorf("core: got %d nodes, need at least n = %d", len(nodes), code.N())
	}
	for idx, n := range nodes {
		if n == nil {
			return nil, fmt.Errorf("core: node %d is nil", idx)
		}
	}
	s := &System{
		code:  code,
		lay:   lay,
		nodes: append([]NodeClient(nil), nodes...),
		opts:  opts,
		locks: make(map[blockKey]*blockLock),
	}
	if !opts.DisableRollback {
		s.cache = newBlockCache()
	}
	if opts.Epoch != 0 || opts.NodeGate != nil {
		for j, n := range s.nodes {
			s.nodes[j] = &wrappedNode{NodeClient: n, node: j, gate: opts.NodeGate, epoch: opts.Epoch}
		}
	}
	s.hedge = newHedger(opts.Hedge, &s.metrics.HedgedRPCs)
	return s, nil
}

// Code returns the system's erasure code.
func (s *System) Code() *erasure.Code { return s.code }

// Layout returns the system's trapezoid layout.
func (s *System) Layout() *trapezoid.Layout { return s.lay }

// Metrics returns a snapshot of the protocol counters.
func (s *System) Metrics() MetricsSnapshot {
	return MetricsSnapshot{
		Writes:         s.metrics.Writes.Load(),
		FailedWrites:   s.metrics.FailedWrites.Load(),
		DirectReads:    s.metrics.DirectReads.Load(),
		DecodeReads:    s.metrics.DecodeReads.Load(),
		FailedReads:    s.metrics.FailedReads.Load(),
		Rollbacks:      s.metrics.Rollbacks.Load(),
		Repairs:        s.metrics.Repairs.Load(),
		HedgedRPCs:     s.metrics.HedgedRPCs.Load(),
		CorruptShards:  s.metrics.CorruptShards.Load(),
		OneRoundWrites: s.metrics.OneRoundWrites.Load(),
		CacheFallbacks: s.metrics.CacheFallbacks.Load(),
	}
}

// CachedBytes returns the pooled bytes the block cache holds.
func (s *System) CachedBytes() int { return s.cache.resident() }

// SetCorruptionHandler installs a callback invoked (synchronously, from
// protocol goroutines) with the cluster node every time a shard is
// observed corrupt: bad bytes against the record majority, or a node
// answering client.ErrCorrupt. The self-heal loop uses it to pin the
// node's health state and schedule a rebuild. A nil fn removes the
// handler.
func (s *System) SetCorruptionHandler(fn func(node int)) {
	if fn == nil {
		s.corruptFn.Store(nil)
		return
	}
	s.corruptFn.Store(&fn)
}

// reportCorrupt records one corruption observation against a stripe
// shard and notifies the handler, if any, of the node holding it.
func (s *System) reportCorrupt(st Stripe, shard int) {
	s.metrics.CorruptShards.Add(1)
	if fp := s.corruptFn.Load(); fp != nil {
		(*fp)(st.Nodes[shard])
	}
}

// node returns the client of the cluster node holding a stripe shard.
func (s *System) node(st Stripe, shard int) NodeClient { return s.nodes[st.Nodes[shard]] }

// check validates a handle: n placed nodes and a block size. A handle
// failing it names no seeded stripe.
func (s *System) check(st Stripe) error {
	if len(st.Nodes) != s.code.N() || st.BlockSize < 1 {
		return fmt.Errorf("%w: %d is not placed on %d nodes", ErrUnknownStripe, st.ID, s.code.N())
	}
	return nil
}

// lockBlock takes the mutex serialising writers of one block. Entries
// are reference-counted: the table holds a block only while a writer
// holds or waits on it.
func (s *System) lockBlock(key blockKey) *blockLock {
	s.mu.Lock()
	l := s.locks[key]
	if l == nil {
		l = &blockLock{}
		s.locks[key] = l
	}
	l.refs++
	s.mu.Unlock()
	l.Lock()
	return l
}

// LockedBlocks returns how many blocks a writer holds or waits on: 0
// whenever no write is in flight.
func (s *System) LockedBlocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.locks)
}

// Forget drops what the block cache holds of a stripe. Call it when the
// stripe's chunks are removed, or changed by anything but this
// system's own writes.
func (s *System) Forget(stripe uint64) { s.cache.dropStripe(stripe, s.code.K()) }

// unlockBlock releases what lockBlock took.
func (s *System) unlockBlock(key blockKey, l *blockLock) {
	l.Unlock()
	s.mu.Lock()
	if l.refs--; l.refs == 0 {
		delete(s.locks, key)
	}
	s.mu.Unlock()
}

// shardForPosition maps a trapezoid position to the stripe shard it
// stores for data block i: position 0 is the data node N_i, positions
// 1..n−k are the parity shards k..n−1 in order.
func (s *System) shardForPosition(block, pos int) int {
	if pos == 0 {
		return block
	}
	return s.code.K() + pos - 1
}

// chunkID names the chunk of one stripe shard.
func chunkID(stripe uint64, shard int) client.ChunkID {
	return client.ChunkID{Stripe: stripe, Shard: shard}
}

// versionOfShard extracts the version of data block `block` from a
// shard's version vector: slot 0 for the data shard itself, slot
// `block` for parity shards.
func (s *System) versionOfShard(block, shard int, versions []uint64) (uint64, bool) {
	slot := 0
	if shard >= s.code.K() {
		slot = block
	} else if shard != block {
		// A foreign data shard carries no version of this block.
		return 0, false
	}
	if slot >= len(versions) {
		return 0, false
	}
	return versions[slot], true
}

// versionSlot returns which version slot of shard tracks data block
// `block`: slot 0 on the data shard, slot `block` on parity shards.
func (s *System) versionSlot(block, shard int) int {
	if shard >= s.code.K() {
		return block
	}
	return 0
}

// SeedStripe bootstraps a stripe: it encodes the k data blocks into
// pooled parity buffers and installs every shard at version 1 on its
// node, all installs issued in parallel. All n nodes must be reachable
// — initial placement is an allocation step, not a quorum operation.
// Blocks must be non-empty and sized as the handle says. On success
// every data block of at most seedCacheMax bytes enters the block
// cache at version 1. On failure some shards may already be installed;
// the caller owns cleanup (the service layer deletes them).
func (s *System) SeedStripe(ctx context.Context, st Stripe, data [][]byte) error {
	k, n := s.code.K(), s.code.N()
	size, err := s.code.DataSize(data)
	if err != nil {
		return err
	}
	if err := s.check(st); err != nil {
		return err
	}
	if size != st.BlockSize {
		return fmt.Errorf("%w: got %d-byte blocks, stripe uses %d", ErrBlockSize, size, st.BlockSize)
	}
	parity := make([][]byte, n-k)
	blks := make([]*blockpool.Block, n-k)
	defer func() {
		for _, b := range blks {
			b.Release()
		}
	}()
	for j := range parity {
		blks[j] = blockpool.GetBlock(size)
		parity[j] = blks[j].B
	}
	if err := s.code.EncodeInto(parity, data); err != nil {
		return err
	}
	shard := func(j int) []byte {
		if j < k {
			return data[j]
		}
		return parity[j-k]
	}
	parityVersions := make([]uint64, k)
	for i := range parityVersions {
		parityVersions[i] = 1
	}
	// The cross-checksum record: every shard learns the content hash of
	// every data block at version 1, so readers can verify served bytes
	// against a majority of independent opinions from day one.
	dataSums := make([]client.BlockSum, k)
	for i := range dataSums {
		dataSums[i] = client.BlockSum{Version: 1, Sum: erasure.Sum64(data[i])}
	}
	errNode := -1
	var nodeErr error
	Fanout(ctx, s.opLimit(), n, func(cctx context.Context, j int) (struct{}, error) {
		versions := parityVersions
		sums := dataSums
		if j < k {
			versions = []uint64{1}
			sums = dataSums[j : j+1 : j+1]
		}
		return struct{}{}, s.node(st, j).PutChunk(cctx, chunkID(st.ID, j), shard(j), versions, sums...)
	}, func(j int, _ struct{}, err error) bool {
		if err == nil {
			return true
		}
		// Report the lowest-numbered genuinely failing node (matching
		// the deterministic error selection of the repair sweep), not
		// whichever failure settled first; installs cancelled by our
		// own early stop are collateral, not the cause.
		if !errors.Is(err, context.Canceled) || ctx.Err() != nil {
			if errNode < 0 || j < errNode {
				errNode = j
				nodeErr = err
			}
		}
		return false // a seed needs every node: abort the rest
	})
	if errNode >= 0 || ctx.Err() != nil {
		s.Forget(st.ID)
		if cerr := ctx.Err(); cerr != nil {
			return opErr("seed", st.ID, cerr)
		}
		return &OpError{Op: "seed", Stripe: st.ID, Block: -1, Level: -1, Node: errNode,
			Err: fmt.Errorf("%w: node %d: %w", ErrSeedIncomplete, errNode, nodeErr)}
	}
	if s.cache != nil && size <= seedCacheMax {
		for i, b := range data {
			blk := blockpool.GetBlock(size)
			copy(blk.B, b)
			s.cache.put(blockKey{st.ID, i}, 1, blk)
		}
	}
	return nil
}
