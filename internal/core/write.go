package core

import (
	"context"
	"errors"
	"fmt"

	"trapquorum/client"
	"trapquorum/internal/blockpool"
	"trapquorum/internal/erasure"
)

// appliedUpdate records one successful node update of an in-flight
// write, so a failed write can undo its own footprint.
type appliedUpdate struct {
	shard int
	// isData marks the data-node full write (undo: restore old chunk);
	// parity updates undo by re-adding the same delta (XOR is its own
	// inverse) while rolling the version back.
	isData     bool
	oldData    []byte
	oldVersion uint64
	newVersion uint64
	delta      []byte
	// adjBlk is the pooled buffer backing delta; released by the write
	// once the update can no longer be rolled back (success, or after
	// the rollback fan-out settled).
	adjBlk *blockpool.Block
}

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
// The protocol first performs a full read of the block (line 15) to
// learn the current version and content, patches p into that content,
// computes the parity delta α_{j,i}·(x−old), then updates the
// trapezoid nodes — the data node receives the patched block outright,
// each parity node receives the delta conditionally on its version
// matching the version just read. The read, the patch and the updates
// all run under the block's writer lock, so writers of disjoint byte
// ranges of one block never lose each other's bytes. Every node
// update, across all levels, is issued in parallel through the
// dispatch engine, so write latency tracks the slowest individual node
// RPC instead of the sum over the quorum. A level that cannot reach
// w_l successful updates fails the write (lines 35–37); the failure is
// detected as soon as enough of the level's RPCs have settled to rule
// the threshold out, and the remaining in-flight updates are
// cancelled. The fan-out waits for every issued RPC to settle before
// deciding, so the rollback bookkeeping sees exactly the updates that
// took effect (the client contract guarantees an RPC settling with a
// context error left its node unchanged).
//
// On failure this implementation rolls back the updates it applied
// (best-effort; disabled by Options.DisableRollback for the faithful
// paper behaviour). A context cancelled or expired mid-quorum aborts
// the write the same way — the partial footprint is rolled back and
// nothing commits — and the returned OpError wraps the context's
// error.
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
// WriteBlockAt, on a validated request.
func (s *System) writeBlock(ctx context.Context, st Stripe, block, off int, p []byte) error {
	size := st.BlockSize
	stripe := st.ID
	if err := ctx.Err(); err != nil {
		// Counted like every other aborted write attempt, so the
		// failed-write counter is consistent across abort points.
		s.metrics.FailedWrites.Add(1)
		return &OpError{Op: "write", Stripe: stripe, Block: block, Level: -1, Node: -1, Err: err}
	}
	key := blockKey{stripe, block}
	defer s.unlockBlock(key, s.lockBlock(key))

	// Algorithm 1 line 15: read the old value and version.
	olds, oldVersions, err := s.readStripe(ctx, st, block, 1)
	if err != nil {
		s.metrics.FailedWrites.Add(1)
		if ctxErr := ctx.Err(); ctxErr != nil {
			return &OpError{Op: "write", Stripe: stripe, Block: block, Level: -1, Node: -1, Err: ctxErr}
		}
		return &OpError{Op: "write", Stripe: stripe, Block: block, Level: -1, Node: -1,
			Err: fmt.Errorf("%w: initial read failed: %v", ErrWriteFailed, err)}
	}
	old, oldVersion := olds[0], oldVersions[0]
	newVersion := oldVersion + 1
	// The new value x: p itself for a whole block, otherwise the old
	// content with p patched in, in a pooled buffer (the transports
	// snapshot what they send).
	x := p
	if len(p) != size {
		xBlk := blockpool.GetBlock(size)
		defer xBlk.Release()
		x = xBlk.B
		copy(x, old)
		copy(x[off:], p)
	}
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

	// One update task per trapezoid position, all levels at once.
	cfg := s.lay.Config()
	type task struct {
		level int
		pos   int
		shard int
	}
	var tasks []task
	type levelState struct {
		need    int
		total   int
		ok      int
		settled int
	}
	levels := make([]levelState, cfg.Shape.H+1)
	for l := 0; l <= cfg.Shape.H; l++ {
		positions := s.lay.Level(l)
		levels[l] = levelState{need: cfg.W[l], total: len(positions)}
		for _, pos := range positions {
			tasks = append(tasks, task{level: l, pos: pos, shard: s.shardForPosition(block, pos)})
		}
	}
	var applied []appliedUpdate
	failLevel := -1
	issue := func(cctx context.Context, t task) (appliedUpdate, error) {
		id := chunkID(stripe, t.shard)
		if t.pos == 0 {
			// Line 20: write x into the data node N_i. The write is
			// unconditional (the per-block lock serialises writers),
			// which also heals a stale or residue-poisoned data chunk.
			if err := s.node(st, t.shard).PutChunk(cctx, id, x, []uint64{newVersion}, newSum); err != nil {
				return appliedUpdate{}, err
			}
			return appliedUpdate{
				shard: t.shard, isData: true,
				oldData: old, oldVersion: oldVersion, newVersion: newVersion,
			}, nil
		}
		// Lines 25–31: conditional delta add on the parity node.
		// CompareAndAdd folds the paper's separate version check and
		// add into one atomic node operation. The Galois adjustment is
		// computed here, inside the worker, so the per-parity GF(256)
		// multiplies run in parallel too — into a pooled buffer that is
		// kept alive while a rollback might need to re-send it.
		adjBlk := blockpool.GetBlock(size)
		s.code.ParityAdjustmentInto(adjBlk.B, t.shard, block, delta)
		if err := s.node(st, t.shard).CompareAndAdd(cctx, id, s.versionSlot(block, t.shard), oldVersion, newVersion, adjBlk.B, newSum); err != nil {
			adjBlk.Release()
			return appliedUpdate{}, err
		}
		return appliedUpdate{
			shard: t.shard, oldVersion: oldVersion, newVersion: newVersion, delta: adjBlk.B, adjBlk: adjBlk,
		}, nil
	}
	// runUpdates fans a task subset out and accounts per level. With
	// failFast it records failLevel as soon as some level provably
	// cannot reach w_l, which also cancels the subset's outstanding
	// updates; without it every update of the subset runs to its own
	// conclusion and the caller evaluates the threshold afterwards.
	runUpdates := func(subset []task, failFast bool) {
		Fanout(ctx, s.opLimit(), len(subset), func(cctx context.Context, i int) (appliedUpdate, error) {
			return issue(cctx, subset[i])
		}, func(i int, upd appliedUpdate, err error) bool {
			// Track every settled update, even ones landing after a
			// failure decision: rollback must know the full footprint.
			lv := &levels[subset[i].level]
			lv.settled++
			if err == nil {
				applied = append(applied, upd)
				lv.ok++
				return true
			}
			// Down, missing, version mismatch, or cancelled: the node
			// did not apply. Fail fast once the level cannot reach w_l.
			if failFast && failLevel < 0 && lv.ok+(lv.total-lv.settled) < lv.need {
				failLevel = subset[i].level
				return false
			}
			return true
		})
	}
	if s.opts.DisableRollback {
		// Paper-faithful mode: Algorithm 1 walks levels 0..h in order,
		// attempts the update on *every* node of a level, and FAILs at
		// the first level missing w_l — never touching the levels
		// above it. That exact residue footprint is what the ablation
		// studies measure, so this mode keeps the level walk (parallel
		// within each level, no early cancellation): an all-levels
		// fan-out or a mid-level abort would strew residue across
		// nodes the published algorithm never reached, or skip nodes
		// it did reach.
		for start := 0; start < len(tasks) && failLevel < 0; {
			end := start
			for end < len(tasks) && tasks[end].level == tasks[start].level {
				end++
			}
			runUpdates(tasks[start:end], false)
			if l := tasks[start].level; levels[l].ok < levels[l].need {
				failLevel = l
			}
			start = end
		}
	} else {
		runUpdates(tasks, true)
	}
	// releaseAdjustments returns the pooled adjustment buffers once no
	// rollback can reference them any more. The fan-out (and, on
	// failure, the rollback fan-out) has fully settled by the time it
	// runs, and the transports snapshot outgoing buffers, so nothing
	// aliases them past this point.
	releaseAdjustments := func() {
		for i := range applied {
			applied[i].adjBlk.Release()
			applied[i].adjBlk = nil
			applied[i].delta = nil
		}
	}
	if failLevel >= 0 {
		// Lines 35–37: FAIL.
		s.metrics.FailedWrites.Add(1)
		if !s.opts.DisableRollback {
			s.rollback(st, block, applied, oldSum)
		}
		releaseAdjustments()
		cause := fmt.Errorf("%w: level %d reached %d of %d", ErrWriteFailed, failLevel, levels[failLevel].ok, levels[failLevel].need)
		if ctxErr := ctx.Err(); ctxErr != nil {
			cause = ctxErr
		}
		return &OpError{Op: "write", Stripe: stripe, Block: block, Level: failLevel, Node: -1, Err: cause}
	}
	s.metrics.Writes.Add(1)
	releaseAdjustments()
	return nil
}

// rollback undoes the footprint of a failed write, best-effort: nodes
// that crashed since their update keep the residue (the hazard the
// test suite demonstrates with rollback disabled). The undo RPCs are
// issued in parallel and run on a detached context — the cleanup must
// proceed even when the write was aborted by the caller's context.
// The undo also restores the cross-checksum record entry for the old
// version — the failed write overwrote each touched node's opinion
// with the new content's hash, and without the restore a later read at
// the old version would find no opinions to verify against.
func (s *System) rollback(st Stripe, block int, applied []appliedUpdate, oldSum client.BlockSum) {
	ctx := context.Background()
	Fanout(ctx, s.opLimit(), len(applied), func(_ context.Context, i int) (struct{}, error) {
		u := applied[i]
		id := chunkID(st.ID, u.shard)
		if u.isData {
			// Restore the old content conditionally on our own
			// version still being in place.
			err := s.node(st, u.shard).CompareAndPut(ctx, id, 0, u.newVersion, u.oldVersion, u.oldData, oldSum)
			if err != nil && !errors.Is(err, client.ErrVersionMismatch) {
				return struct{}{}, err
			}
			return struct{}{}, nil
		}
		// XOR is self-inverse: adding the same delta again while
		// stepping the version back restores the parity chunk.
		_ = s.node(st, u.shard).CompareAndAdd(ctx, id, s.versionSlot(block, u.shard), u.newVersion, u.oldVersion, u.delta, oldSum)
		return struct{}{}, nil
	}, func(int, struct{}, error) bool { return true })
	s.metrics.Rollbacks.Add(1)
}
