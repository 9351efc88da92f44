package core

import (
	"context"
	"errors"
	"fmt"

	"trapquorum/client"
	"trapquorum/internal/blockpool"
	"trapquorum/internal/erasure"
)

// nodeUpdate is one node update of a write's update phase, and its
// outcome once it settled: applied (err nil), refused (the node
// answered and turned it down, see refused) or in doubt (anything
// else: a transport or context error leaves the node's state unknown).
type nodeUpdate struct {
	level, pos, shard int
	// sent marks an update the fan-out issued; one it settled without
	// calling it never reached the node.
	sent bool
	// adj is a parity update's pooled adjustment α·delta. A rollback
	// re-sends it, so it lives until the update phase returns.
	adj *blockpool.Block
	err error
}

// undo reports whether a failed write's rollback sends the update its
// undo: it applied, or it went out and its outcome is in doubt.
func (u *nodeUpdate) undo() bool { return u.sent && !refused(u.err) }

// WriteBlock implements Algorithm 1: write value x into data block
// `block` of a stripe — the whole-block case of WriteBlockAt, so x must
// be exactly the stripe's block size.
func (s *System) WriteBlock(ctx context.Context, st Stripe, block int, x []byte) error {
	if err := s.checkWrite(st, block); err != nil {
		return err
	}
	if len(x) != st.BlockSize {
		return fmt.Errorf("%w: got %d bytes, stripe uses %d", ErrBlockSize, len(x), st.BlockSize)
	}
	return s.writeBlock(ctx, st, block, 0, x)
}

// WriteBlockAt implements Algorithm 1 for bytes [off, off+len(p)) of
// data block `block`: the block's other bytes keep their content.
//
// The protocol learns the block's current version and content — from
// the block cache when this coordinator committed the block last, else
// from a full read of the block (line 15) — patches p into that
// content, computes the parity delta α_{j,i}·(x−old), then updates the
// trapezoid nodes: the data node receives the patched block (outright
// after a read, conditionally on the cached version otherwise), each
// parity node receives the delta conditionally on its version matching
// the version learnt. Learning the version, the patch and the updates
// all run under the block's writer lock, so writers of disjoint byte
// ranges of one block never lose each other's bytes. Every node
// update, across all levels, is issued in parallel through the
// dispatch engine, so write latency tracks the slowest individual node
// RPC instead of the sum over the quorum. Every update settles before
// the write is judged: a level that did not reach w_l successful
// updates fails the write (lines 35–37).
//
// On failure this implementation rolls back its footprint (best-effort;
// disabled by Options.DisableRollback for the faithful paper
// behaviour): every update that applied, and every one whose outcome is
// in doubt — a transport or context error cannot say whether the node
// applied it — gets a version-guarded undo. A context cancelled or
// expired mid-quorum aborts the write the same way — the partial
// footprint is rolled back and nothing commits — and the returned
// OpError wraps the context's error.
func (s *System) WriteBlockAt(ctx context.Context, st Stripe, block, off int, p []byte) error {
	if err := s.checkWrite(st, block); err != nil {
		return err
	}
	if off < 0 || len(p) == 0 || off+len(p) > st.BlockSize {
		return fmt.Errorf("%w: bytes [%d,%d) of a %d-byte block", ErrBlockSize, off, off+len(p), st.BlockSize)
	}
	return s.writeBlock(ctx, st, block, off, p)
}

// checkWrite validates a write's block index and handle.
func (s *System) checkWrite(st Stripe, block int) error {
	if block < 0 || block >= s.code.K() {
		return fmt.Errorf("%w: %d of k=%d", ErrBadIndex, block, s.code.K())
	}
	return s.check(st)
}

// writeBlock is Algorithm 1's one body, behind WriteBlock and
// WriteBlockAt, on a validated request. It counts every write's
// outcome once; update and the line-15 read only report theirs.
//
// When the block cache holds the block — the version and bytes this
// coordinator last committed for it — line 15's read is skipped and the
// write is one round: the update phase runs on the cached content, with
// the data node's put conditional on the cached version too. If that
// one-round attempt fails for any reason, it has rolled back what it
// may have applied and dropped the stripe's entries, and the write runs
// once more the two-round way: a stale entry costs a round, never an
// error or an aliased version (DESIGN.md §2.5).
func (s *System) writeBlock(ctx context.Context, st Stripe, block, off int, p []byte) (err error) {
	// updated marks a write that ran an update phase, and so rolled
	// back if it failed.
	updated := false
	defer func() {
		if err == nil {
			s.metrics.Writes.Add(1)
			return
		}
		s.metrics.FailedWrites.Add(1)
		if updated && !s.opts.DisableRollback {
			s.metrics.Rollbacks.Add(1)
		}
	}()
	stripe := st.ID
	if err := ctx.Err(); err != nil {
		return &OpError{Op: "write", Stripe: stripe, Block: block, Level: -1, Node: -1, Err: err}
	}
	key := blockKey{stripe, block}
	defer s.unlockBlock(key, s.lockBlock(key))

	if cb, ok := s.cache.take(key); ok {
		updated = true
		if err := s.update(ctx, st, block, off, p, cb.blk.B, cb.version, cb.blk); err == nil {
			s.metrics.OneRoundWrites.Add(1)
			return nil
		}
		s.metrics.CacheFallbacks.Add(1)
	}

	// Algorithm 1 line 15: read the old value and version.
	olds, oldVersions, err := s.readStripe(ctx, st, block, 1)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return &OpError{Op: "write", Stripe: stripe, Block: block, Level: -1, Node: -1, Err: ctxErr}
		}
		return &OpError{Op: "write", Stripe: stripe, Block: block, Level: -1, Node: -1,
			Err: fmt.Errorf("%w: initial read failed: %v", ErrWriteFailed, err)}
	}
	updated = true
	return s.update(ctx, st, block, off, p, olds[0], oldVersions[0], nil)
}

// update is Algorithm 1's update phase (lines 16–37) for bytes
// [off, off+len(p)) of a block whose current content is old at
// oldVersion, under the block's writer lock.
//
// cached is nil when old and oldVersion come from line 15's read; then
// the data node's put is unconditional, which also heals a stale or
// residue-poisoned data chunk. Otherwise they are the cache's entry and
// cached is its block, which update owns: the data node's put expects
// oldVersion like every parity's add, and a data node that refuses —
// moved on, missing or rotten — fails the attempt as a level short of
// w_l would.
//
// The updates fan out in groups, and every update of a group settles
// before the group's levels are judged: one group of every trapezoid
// position, or under DisableRollback one level at a time, stopping at
// the first level short of w_l. On success the new content is recorded
// in the block cache at the new version; on failure every update that
// applied or is in doubt is rolled back (unless rollback is disabled)
// and the stripe's entries dropped.
func (s *System) update(ctx context.Context, st Stripe, block, off int, p, old []byte, oldVersion uint64, cached *blockpool.Block) (err error) {
	size := st.BlockSize
	stripe := st.ID
	hit := cached != nil
	newVersion := oldVersion + 1
	// The new value x: p itself for a whole block, otherwise the old
	// content with p patched in, in a pooled buffer (the transports
	// snapshot what they send).
	x := p
	var xBlk *blockpool.Block
	if len(p) != size {
		xBlk = blockpool.GetBlock(size)
		x = xBlk.B
		copy(x, old)
		copy(x[off:], p)
	}
	defer func() {
		if err != nil || s.cache == nil {
			xBlk.Release()
			cached.Release()
			return
		}
		// Keep x as the block's entry, in whichever pooled buffer is
		// free to hold it: the patched one, else the old entry's.
		keep := xBlk
		switch {
		case keep != nil:
			cached.Release()
		case cached != nil:
			keep = cached
			copy(keep.B, x)
		default:
			keep = blockpool.GetBlock(size)
			copy(keep.B, x)
		}
		s.cache.put(blockKey{stripe, block}, newVersion, keep)
	}()
	// The writer is the one party that knows the new content before it
	// is sharded: it distributes the content hash to every node it
	// touches, so readers can later verify the data node's bytes against
	// the parity nodes' independent records (cross-checksum, DESIGN.md §6).
	newSum := client.BlockSum{Version: newVersion, Sum: erasure.Sum64(x)}
	oldSum := client.BlockSum{Version: oldVersion, Sum: erasure.Sum64(old)}
	// The delta x−old and the per-parity adjustments α·delta live in
	// pooled buffers: the transports snapshot what they send (client
	// contract), so a healthy write allocates no blocks of its own.
	deltaBlk := blockpool.GetBlock(size)
	defer deltaBlk.Release()
	delta := deltaBlk.B
	erasure.DataDeltaInto(delta, old, x)

	// One update per trapezoid position, level by level.
	cfg := s.lay.Config()
	upds := make([]nodeUpdate, 0, s.lay.NbNodes())
	for l := 0; l <= cfg.Shape.H; l++ {
		for _, pos := range s.lay.Level(l) {
			upds = append(upds, nodeUpdate{level: l, pos: pos, shard: s.shardForPosition(block, pos)})
		}
	}
	// The adjustments are released once no rollback can re-send them:
	// the update fan-out and any rollback fan-out have settled, and the
	// transports snapshot outgoing buffers.
	defer func() {
		for i := range upds {
			upds[i].adj.Release()
		}
	}()
	issue := func(cctx context.Context, u *nodeUpdate) error {
		u.sent = true
		id := chunkID(stripe, u.shard)
		node := s.node(st, u.shard)
		switch {
		case u.pos != 0:
			// Lines 25–31: conditional delta add on the parity node.
			// CompareAndAdd folds the paper's separate version check
			// and add into one atomic node operation. The Galois
			// adjustment is computed here, inside the worker, so the
			// per-parity GF(256) multiplies run in parallel too.
			u.adj = blockpool.GetBlock(size)
			s.code.ParityAdjustmentInto(u.adj.B, u.shard, block, delta)
			return node.CompareAndAdd(cctx, id, s.versionSlot(block, u.shard), oldVersion, newVersion, u.adj.B, newSum)
		case hit:
			// Line 20 on cached content: conditional on the cached
			// version.
			return node.CompareAndPut(cctx, id, 0, oldVersion, newVersion, x, newSum)
		default:
			// Line 20 after line 15's read: unconditional, the
			// per-block lock serialises writers.
			return node.PutChunk(cctx, id, x, []uint64{newVersion}, newSum)
		}
	}
	ok := make([]int, cfg.Shape.H+1)
	failLevel := -1
	for start := 0; start < len(upds) && failLevel < 0; {
		end := len(upds)
		if s.opts.DisableRollback {
			// Paper-faithful mode: Algorithm 1 walks levels 0..h in
			// order and FAILs at the first level missing w_l, never
			// touching the levels above it. That exact residue
			// footprint is what the ablation studies measure.
			end = start + len(s.lay.Level(upds[start].level))
		}
		group := upds[start:end]
		Fanout(ctx, s.opLimit(), len(group), func(cctx context.Context, i int) (struct{}, error) {
			return struct{}{}, issue(cctx, &group[i])
		}, func(i int, _ struct{}, err error) bool {
			group[i].err = err
			return true
		})
		for _, u := range group {
			if u.err == nil {
				ok[u.level]++
			}
		}
		for l := group[0].level; l <= group[len(group)-1].level && failLevel < 0; l++ {
			if ok[l] < cfg.W[l] {
				failLevel = l
			}
		}
		start = end
	}
	if failLevel < 0 && hit && refused(upds[0].err) {
		// Position 0, the data node, refused the cached version.
		failLevel = 0
	}
	if failLevel < 0 {
		return nil
	}
	// Lines 35–37: FAIL.
	if !s.opts.DisableRollback {
		s.rollback(st, block, upds, old, oldSum)
	}
	s.cache.dropStripe(stripe, s.code.K())
	cause := fmt.Errorf("%w: level %d reached %d of %d", ErrWriteFailed, failLevel, ok[failLevel], cfg.W[failLevel])
	if ctxErr := ctx.Err(); ctxErr != nil {
		cause = ctxErr
	}
	return &OpError{Op: "write", Stripe: stripe, Block: block, Level: failLevel, Node: -1, Err: cause}
}

// refused reports a node that answered an update and turned it down:
// its chunk is at another version, missing or rotten.
func refused(err error) bool {
	return errors.Is(err, client.ErrVersionMismatch) || errors.Is(err, client.ErrNotFound) || errors.Is(err, client.ErrCorrupt)
}

// rollback undoes the footprint of a failed write, best-effort: every
// update that applied or is in doubt gets a version-guarded undo, which
// a node that never applied the update refuses as a version mismatch
// and leaves unchanged. Nodes that crashed since their update keep the
// residue (the hazard the test suite demonstrates with rollback
// disabled), as do nodes the undo does not reach within the unwind
// budget. The undo RPCs are issued in parallel on the unwind context —
// the cleanup must proceed even when the write was aborted by the
// caller's context — so a node whose link swallows requests leaves
// residue instead of holding the block's writer lock forever. The undo
// also restores the cross-checksum record entry for the old version —
// the failed write overwrote each touched node's opinion with the new
// content's hash, and without the restore a later read at the old
// version would find no opinions to verify against.
func (s *System) rollback(st Stripe, block int, upds []nodeUpdate, old []byte, oldSum client.BlockSum) {
	var undo []*nodeUpdate
	for i := range upds {
		if upds[i].undo() {
			undo = append(undo, &upds[i])
		}
	}
	ctx, stop := Unwind()
	defer stop()
	newVersion := oldSum.Version + 1
	Fanout(ctx, s.opLimit(), len(undo), func(ctx context.Context, i int) (struct{}, error) {
		u := undo[i]
		id := chunkID(st.ID, u.shard)
		if u.pos == 0 {
			// Restore the old content conditionally on our own
			// version still being in place.
			return struct{}{}, s.node(st, u.shard).CompareAndPut(ctx, id, 0, newVersion, oldSum.Version, old, oldSum)
		}
		// XOR is self-inverse: adding the same delta again while
		// stepping the version back restores the parity chunk.
		return struct{}{}, s.node(st, u.shard).CompareAndAdd(ctx, id, s.versionSlot(block, u.shard), newVersion, oldSum.Version, u.adj.B, oldSum)
	}, func(int, struct{}, error) bool { return true })
}
