package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"trapquorum/internal/blockpool"
	"trapquorum/internal/clock"
	"trapquorum/internal/erasure"
)

// ReadBlock implements Algorithm 2 for one data block of a stripe — the
// one-block case of ReadStripe. It returns the block content and the
// version it carries.
func (s *System) ReadBlock(ctx context.Context, st Stripe, block int) ([]byte, uint64, error) {
	data, versions, err := s.ReadStripe(ctx, st, block, 1)
	if err != nil {
		return nil, 0, err
	}
	return data[0], versions[0], nil
}

// ReadStripe implements Algorithm 2 for data blocks [first, first+count)
// of a stripe: it returns each block's content and the version it
// carries.
//
// The stripe is asked once, in one fan-out: a chunk read of every
// requested block's data node and a record probe (ReadVersions) of
// every parity node. Each block is then judged on that one snapshot.
//
// Step 1 (checking version) runs per block over the answers, the data
// node's chunk standing in for its position-0 probe: the first level,
// in level order, holding r_l = s_l−w_l+1 valid answers determines the
// latest version, the largest among them.
//
// Step 2 (read or decode): the block is served from its data node
// (Case 1) when the chunk carries at least that version and its bytes
// match the plurality of the parity records (verify.go); otherwise it
// is decoded from k mutually consistent shards at that version (Case
// 2), for that block only.
//
// The fan-out stops as soon as every block is decided and cancels the
// rest ("first-quorum"). A data node whose chunk is all a block still
// lacks gets a grace period scaled to how fast the rest answered; past
// it the block is decoded, so a slow data node never gates its block.
//
// A cancelled or expired context aborts the read; the returned OpError
// wraps the context's error.
func (s *System) ReadStripe(ctx context.Context, st Stripe, first, count int) ([][]byte, []uint64, error) {
	if first < 0 || count < 1 || first+count > s.code.K() {
		return nil, nil, fmt.Errorf("%w: blocks [%d,%d) of k=%d", ErrBadIndex, first, first+count, s.code.K())
	}
	if err := s.check(st); err != nil {
		return nil, nil, err
	}
	data, versions, err := s.readStripe(ctx, st, first, count)
	if err != nil {
		s.metrics.FailedReads.Add(1)
	}
	return data, versions, err
}

// readRetryLimit bounds how often a read chases a version that
// concurrent writes moved past mid-flight.
const readRetryLimit = 4

// directReadGraceFloor is the minimum time a stripe read waits for a
// data node's chunk once everything else its block needs is in hand.
// Generous on purpose: on a healthy cluster the chunk lands orders of
// magnitude sooner, so the decode fallback practically never starts
// unless the node really is a straggler.
const directReadGraceFloor = 50 * time.Millisecond

// readStripe is ReadStripe without validation and metrics, shared with
// the write path's initial read (Algorithm 1 line 15).
//
// A decode can race concurrent writers: the snapshot pins "latest = v",
// but by the time the shards are gathered every parity has moved to v+1
// and no consistent set at v exists any more. That is not a failure of
// the stripe — a fresh snapshot observes the newer version and
// succeeds. The retry is bounded and re-judges only the blocks still
// undecided; a block whose fresh snapshot pins the version its failed
// decode pinned has a genuine availability gap and fails the read. A
// stripe under relentless write pressure can still report
// ErrNotReadable, which callers treat like any other transient quorum
// failure.
func (s *System) readStripe(ctx context.Context, st Stripe, first, count int) ([][]byte, []uint64, error) {
	wrap := func(block int, err error) error {
		return &OpError{Op: "read", Stripe: st.ID, Block: block, Level: -1, Node: -1, Err: err}
	}
	data := make([][]byte, count)
	versions := make([]uint64, count)
	// pinned and failed record each block's last failed decode.
	pinned := make([]uint64, count)
	failed := make([]error, count)
	todo := make([]bool, s.code.K())
	for b := first; b < first+count; b++ {
		todo[b] = true
	}
	for attempt, left := 0, count; attempt < readRetryLimit && left > 0; attempt++ {
		view, verdicts := s.snapshot(ctx, st, todo)
		if err := ctx.Err(); err != nil {
			return nil, nil, wrap(first, err)
		}
		// served holds the data chunks this snapshot served direct, for
		// a decode to reuse instead of asking their nodes again.
		var served []shardAnswer
		for b, want := range todo {
			if !want {
				continue
			}
			i, v := b-first, verdicts[b]
			switch v.state {
			case readDirect:
				data[i], versions[i] = view.shards[b].data, v.version
				s.metrics.DirectReads.Add(1)
				todo[b] = false
				left--
				continue
			case readUndecided, readNoQuorum:
				return nil, nil, wrap(b, fmt.Errorf("%w: no level reached its version check threshold", ErrNotReadable))
			case readConvicted:
				s.reportCorrupt(st, b)
			}
			if attempt > 0 && v.version == pinned[i] {
				// No concurrent progress: the previous decode failure was
				// a genuine availability gap, not a race.
				return nil, nil, wrap(b, failed[i])
			}
			if served == nil {
				served = make([]shardAnswer, len(view.shards))
				for d, dv := range verdicts {
					if dv.state == readDirect {
						served[d] = view.shards[d]
					}
				}
			}
			out, err := s.decodeBlock(ctx, st, b, v.version, v.expect, served)
			if err != nil {
				if cerr := ctx.Err(); cerr != nil {
					// The shards stopped answering because the context
					// died, not because the stripe degraded.
					return nil, nil, wrap(b, cerr)
				}
				pinned[i], failed[i] = v.version, err
				continue
			}
			data[i], versions[i] = out, v.version
			s.metrics.DecodeReads.Add(1)
			todo[b] = false
			left--
		}
	}
	for b, want := range todo {
		if want {
			return nil, nil, wrap(b, failed[b-first])
		}
	}
	return data, versions, nil
}

// readState is what a stripe read's snapshot says of one block.
type readState int

const (
	// readUndecided: no level holds its read threshold yet, and one
	// still can.
	readUndecided readState = iota
	// readNoQuorum: no level can reach its read threshold any more —
	// Algorithm 2's ∅.
	readNoQuorum
	// readAwaitChunk: the version is decided; the data node's chunk has
	// not answered.
	readAwaitChunk
	// readAwaitRecords: the chunk is in hand, but the parity records
	// that must judge it are still coming.
	readAwaitRecords
	// readDirect: Case 1, the chunk is served.
	readDirect
	// readDecode: Case 2 — the data node is down, stale or slow.
	readDecode
	// readConvicted: Case 2 as well — the chunk contradicts the record
	// plurality, and its node is reported.
	readConvicted
)

// blockVerdict is the judgement of one block: its state, the version
// it is served or decoded at, and the record plurality for that
// version.
type blockVerdict struct {
	state   readState
	version uint64
	expect  sumOpinion
}

// snapshot asks the stripe once for the blocks marked in want — a
// hedged chunk read of each one's data node and a hedged record probe
// of every parity node, all in one fan-out — and judges each such
// block on what came back. The fan-out stops when every block is
// decided. When only data chunks are missing it waits a grace period
// of twice the time taken so far (directReadGraceFloor at least), then
// cuts the fan-out; judge treats a cut answer as never given.
func (s *System) snapshot(ctx context.Context, st Stripe, want []bool) (*stripeView, []blockVerdict) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	start := time.Now()
	var grace clock.Timer
	view := s.gather(cctx, st, -1, gatherOpt{read: want, hedge: true, stop: func(v *stripeView) bool {
		awaitChunk := false
		for b, w := range want {
			if !w {
				continue
			}
			switch s.judge(v, b).state {
			case readUndecided, readAwaitRecords:
				return false
			case readAwaitChunk:
				awaitChunk = true
			}
		}
		if awaitChunk && grace == nil {
			grace = clock.Real{}.AfterFunc(max(2*time.Since(start), directReadGraceFloor), cancel)
		}
		return !awaitChunk
	}})
	if grace != nil {
		grace.Stop()
	}
	verdicts := make([]blockVerdict, len(want))
	for b, w := range want {
		if w {
			verdicts[b] = s.judge(view, b)
		}
	}
	return view, verdicts
}

// judge runs Algorithm 2 for data block `block` on a stripe read's
// snapshot. Any level's threshold overlaps every committed write at
// that level, so the first level, in level order, holding r_l valid
// answers wins without waiting for the ones below it. The chunk is
// judged only by other nodes' records (opinion leaves the data node
// out): their plurality at the chunk's version must be known or every
// parity must have answered, and when the winning level holds no
// parity position (level 0 with b = 1) every parity must have answered
// in any case, so the node cannot certify itself on its own record.
func (s *System) judge(v *stripeView, block int) blockVerdict {
	cfg := s.lay.Config()
	winner, live := -1, false
	var version uint64
	for l := 0; l <= cfg.Shape.H && winner < 0; l++ {
		counted, waiting := 0, 0
		var latest uint64
		for _, pos := range s.lay.Level(l) {
			shard := s.shardForPosition(block, pos)
			a := &v.shards[shard]
			if !a.answered() {
				waiting++
				continue
			}
			if a.err != nil {
				continue
			}
			if ver, ok := s.versionOfShard(block, shard, a.versions); ok {
				latest = max(latest, ver)
				counted++
			}
		}
		need := cfg.ReadThreshold(l)
		if counted >= need {
			winner, version = l, latest
		}
		live = live || counted+waiting >= need
	}
	if winner < 0 {
		if live {
			return blockVerdict{state: readUndecided}
		}
		return blockVerdict{state: readNoQuorum}
	}
	a := &v.shards[block]
	switch {
	case !a.answered():
		return blockVerdict{state: readAwaitChunk, version: version, expect: v.opinion(block, version, block)}
	case a.err != nil || len(a.versions) == 0 || a.versions[0] < version:
		return blockVerdict{state: readDecode, version: version, expect: v.opinion(block, version, block)}
	}
	served := a.versions[0]
	expect := v.opinion(block, served, block)
	alone := winner == 0 && len(s.lay.Level(0)) == 1
	switch {
	case (alone || !expect.known) && v.recordsPending():
		return blockVerdict{state: readAwaitRecords, version: version, expect: v.opinion(block, version, block)}
	case expect.known && a.sum != expect.sum:
		return blockVerdict{state: readConvicted, version: served, expect: expect}
	}
	return blockVerdict{state: readDirect, version: served, expect: expect}
}

// decodeBlock implements Case 2 of Algorithm 2: reconstruct data block
// `block` at the target version from any k mutually consistent shards
// (see stripeview.go for the rule). The block's own shard never counts:
// it is stale or suspect here — Case 1 handles it fresh — so it is not
// asked.
//
// The data chunks the stripe read already served direct (served, by
// shard; nil slots were not) are reused, and every other shard's chunk
// read is issued in parallel, hedged. The gather stops as soon as some
// set reaches k members ("first-k"), cancelling the straggler reads.
// Any k mutually consistent shards of an MDS code decode the same
// bytes, so taking the first viable set instead of the largest changes
// nothing but the latency. When the reused chunks fit no set — writes
// moved their blocks on since — one more gather asks every shard.
func (s *System) decodeBlock(ctx context.Context, st Stripe, block int, version uint64, expect sumOpinion, served []shardAnswer) ([]byte, error) {
	// The hook runs after every answer until it stops the gather, so
	// when the gather returns the sets are the frozen view's.
	var sets []consistentSet
	opt := gatherOpt{hedge: true, known: served, stop: func(v *stripeView) bool {
		sets = v.decodableSets(block, version, block)
		return len(sets) > 0
	}}
	view := s.gather(ctx, st, block, opt)
	if len(sets) == 0 && ctx.Err() == nil && slices.ContainsFunc(served, func(a shardAnswer) bool { return a.data != nil }) {
		opt.known = nil
		view = s.gather(ctx, st, block, opt)
	}
	if len(sets) == 0 {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("%w: no %d consistent shards at version %d", ErrNotReadable, s.code.K(), version)
	}
	// The n-slot shard view is pooled scratch; the decoded block itself
	// is the user-facing result and stays a plain allocation.
	sl := blockpool.GetShardList(s.code.N())
	defer sl.Release()
	view.fill(sl.S, sets[0].members)
	out, err := s.code.DecodeBlock(block, sl.S)
	if err != nil {
		return nil, err
	}
	if !expect.known {
		// The parity records the gather collected judge what was
		// decoded, whichever set decoded it — stale parities included.
		expect = view.opinion(block, version, block)
	}
	if expect.known && erasure.Sum64(out) != expect.sum {
		// Some member of the winning set fed bad bytes into the decode:
		// escalate to the exhaustive survivor-set search, which also
		// pinpoints the culprit.
		return s.verifiedDecode(ctx, st, block, version, expect)
	}
	return out, nil
}
