package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"trapquorum/client"
	"trapquorum/internal/blockpool"
	"trapquorum/internal/erasure"
)

// RepairShard reconstructs stripe shard j from the surviving nodes and
// reinstalls it on the node holding it (which must be reachable
// again). This is the exact-repair path run when a failed node rejoins
// with an empty or stale disk.
//
// The repair reads every other reachable shard, picks the freshest
// mutually consistent set with at least k members (the decode path's
// rule, see stripeview.go), recomputes shard j from it, and writes the
// chunk with the set's version bookkeeping — through the
// version-guarded put: a concurrent write may have advanced the shard
// since the survivors were gathered, and a repair never regresses it.
//
// Ordering note for bulk repair: when many shards are stale, repair
// parity shards before data shards. Data shards are always mutually
// consistent (each is authoritative for its own block), so parity can
// be rebuilt from them; a data-shard rebuild, however, needs k
// consistent survivors, which stale parities cannot supply until they
// are refreshed.
func (s *System) RepairShard(ctx context.Context, st Stripe, shard int) error {
	if shard < 0 || shard >= s.code.N() {
		return fmt.Errorf("%w: shard %d of n=%d", ErrBadIndex, shard, s.code.N())
	}
	if err := s.check(st); err != nil {
		return err
	}
	// No early termination: repair wants the *freshest* consistent set,
	// so every survivor's answer matters.
	return s.repairFrom(ctx, s.gather(ctx, st, shard, gatherOpt{}), st, shard)
}

// repairFrom rebuilds shard from the freshest decodable set the view
// holds without it and installs the result on the shard's node. It
// drops the stripe's block-cache entries.
func (s *System) repairFrom(ctx context.Context, view *stripeView, st Stripe, shard int) error {
	// A repair changes chunks outside the write path.
	defer s.Forget(st.ID)
	set := freshest(view.decodableSets(-1, 0, shard))
	if set == nil {
		if cerr := ctx.Err(); cerr != nil {
			// Nodes stopped answering because the context expired, not
			// because the stripe degraded.
			return opErr("repair", st.ID, cerr)
		}
		return fmt.Errorf("%w: no %d consistent shards survive", ErrNotReadable, s.code.K())
	}
	sl := blockpool.GetShardList(s.code.N())
	defer sl.Release()
	view.fill(sl.S, set.members)
	// The rebuilt shard lives in a pooled buffer: the node install
	// snapshots what it stores (client contract), so the buffer is
	// release-safe once the RPC settles.
	rebuilt := blockpool.GetBlock(len(sl.S[set.members[0]]))
	defer rebuilt.Release()
	if err := s.code.RepairShardInto(rebuilt.B, shard, sl.S); err != nil {
		return err
	}
	versions, sums, err := s.repairInstallMeta(view, shard, set.vector, rebuilt.B)
	if err != nil {
		return err
	}
	if err := s.node(st, shard).PutChunkIfFresher(ctx, chunkID(st.ID, shard), rebuilt.B, versions, sums...); err != nil {
		return err
	}
	s.metrics.Repairs.Add(1)
	return nil
}

// repairInstallMeta derives the version vector and cross-checksum
// record a rebuilt shard is installed with. A rebuilt data shard is
// verified against the survivors' record majority before install —
// installing unverified bytes would launder a corrupt survivor's
// damage into a fresh, self-consistent chunk. A rebuilt parity shard
// carries the record entries the survivor majority agrees on (slots
// without a majority stay empty and abstain from future reads).
func (s *System) repairInstallMeta(view *stripeView, shard int, vector []uint64, rebuilt []byte) ([]uint64, []client.BlockSum, error) {
	k := s.code.K()
	if shard < k {
		sum := erasure.Sum64(rebuilt)
		if want := view.opinion(shard, vector[shard], shard); want.known && want.sum != sum {
			// Some survivor fed bad bytes into the rebuild; which one is
			// unknown here, so no per-shard report — the read path's
			// escalation pinpoints culprits.
			return nil, nil, fmt.Errorf("core: rebuilt shard %d disagrees with the record majority: %w", shard, client.ErrCorrupt)
		}
		return []uint64{vector[shard]}, []client.BlockSum{{Version: vector[shard], Sum: sum}}, nil
	}
	sums := make([]client.BlockSum, k)
	for b := 0; b < k; b++ {
		if op := view.opinion(b, vector[b], shard); op.known {
			sums[b] = client.BlockSum{Version: vector[b], Sum: op.sum}
		}
	}
	return vector, sums, nil
}

// RepairStripe brings every stale shard of a stripe back to a mutually
// consistent, freshest reachable state, iterating to a fixpoint. The
// iteration matters because repairs have dependencies in both
// directions: stale parity needs fresh data shards, while a data shard
// that missed a committed write can only be rebuilt once enough fresh
// parity is available — and a shard that is *ahead* of every
// consistent group (it holds a committed write its peers missed) must
// not be touched at all, or the write would be lost.
//
// Each round gathers the stripe once — n chunk reads — and every
// shard's repair is derived from that one snapshot, concurrently
// (bounded by the configured concurrency): per-shard repairs are
// independent — each takes its survivor set from the snapshot without
// the shard itself and installs through the version-guarded put, so a
// write racing the round can at worst get an install refused (the
// shard is then reported ahead). Rounds remain barriers, preserving
// the fixpoint argument.
//
// repaired counts guarded installs that succeeded, summed over all
// rounds: a round reinstalls every shard it can rebuild, fresh ones
// included (an identical rewrite), so a healthy stripe reports n and
// the figure is an upper bound on the shards that actually changed.
// ahead lists the shards intentionally left alone because they are
// ahead of (or incomparable with) the freshest rebuildable state; err
// reports shards that could not be repaired for any other reason.
func (s *System) RepairStripe(ctx context.Context, st Stripe) (repaired int, ahead []int, err error) {
	if err := s.check(st); err != nil {
		return 0, nil, err
	}
	n := s.code.N()
	lastFailed := n + 1
	for round := 0; round < n+1; round++ {
		if cerr := ctx.Err(); cerr != nil {
			return repaired, ahead, opErr("repair", st.ID, cerr)
		}
		var failed []int
		var failErr error
		ahead = ahead[:0]
		view := s.gather(ctx, st, -1, gatherOpt{})
		Fanout(ctx, s.bulkLimit(), n, func(cctx context.Context, shard int) (struct{}, error) {
			return struct{}{}, s.repairFrom(cctx, view, st, shard)
		}, func(shard int, _ struct{}, rerr error) bool {
			switch {
			case rerr == nil:
				repaired++
			case errors.Is(rerr, client.ErrVersionMismatch):
				// The stored chunk is fresher than anything we can
				// rebuild: leave it (see the residue discussion).
				ahead = append(ahead, shard)
			default:
				failed = append(failed, shard)
				failErr = rerr
			}
			return true
		})
		sort.Ints(ahead)
		sort.Ints(failed)
		if len(failed) == 0 {
			return repaired, ahead, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return repaired, ahead, opErr("repair", st.ID, cerr)
		}
		if len(failed) >= lastFailed {
			return repaired, ahead, fmt.Errorf("core: repair stalled on shards %v: %w", failed, failErr)
		}
		lastFailed = len(failed)
	}
	return repaired, ahead, fmt.Errorf("core: repair did not converge")
}

// RepairSweep is the node-wide repair: it rebuilds every shard the
// given stripes place on cluster node `node`, the shards of stripes[i]
// through sys(i) — one sweep can span the Systems of several epochs.
// The per-stripe repairs fan out under limit (see BulkLimit), so a
// node-wide rebuild does not starve foreground traffic, and the sweep
// continues past failures. It returns how many chunks it rebuilt and
// the error of the failing shard of the lowest stripe id — the
// context's error when the sweep stopped because the context died.
func RepairSweep(ctx context.Context, limit, node int, stripes []Stripe, sys func(i int) *System) (int, error) {
	type task struct{ i, shard int }
	var tasks []task
	for i, st := range stripes {
		for shard, placed := range st.Nodes {
			if placed == node {
				tasks = append(tasks, task{i, shard})
			}
		}
	}
	sort.Slice(tasks, func(a, b int) bool { return stripes[tasks[a].i].ID < stripes[tasks[b].i].ID })
	repaired := 0
	errIdx := -1
	var errAt error
	Fanout(ctx, limit, len(tasks), func(cctx context.Context, t int) (struct{}, error) {
		return struct{}{}, sys(tasks[t].i).RepairShard(cctx, stripes[tasks[t].i], tasks[t].shard)
	}, func(t int, _ struct{}, err error) bool {
		if err == nil {
			repaired++
			return true
		}
		if errIdx < 0 || t < errIdx {
			errIdx, errAt = t, err
		}
		return true
	})
	if errAt == nil {
		return repaired, nil
	}
	if cerr := ctx.Err(); cerr != nil {
		errAt = cerr
	}
	t := tasks[errIdx]
	return repaired, &OpError{Op: "repair", Stripe: stripes[t.i].ID, Block: -1, Level: -1, Node: t.shard, Err: errAt}
}
