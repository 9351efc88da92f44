package core

import (
	"context"
	"fmt"
	"time"

	"trapquorum/client"
	"trapquorum/internal/blockpool"
	"trapquorum/internal/erasure"
)

// ReadBlock implements Algorithm 2: read data block `block` of a
// stripe. It returns the block content and the version it carries.
//
// Step 1 (checking version): every level's version probes are issued
// in parallel through the dispatch engine; the first level to collect
// r_l = s_l−w_l+1 answers determines the latest version, and the
// remaining probes are cancelled ("first-quorum" early termination).
//
// Step 2 (read or decode): if the data node N_i holds the latest
// version the block is read from it directly (Case 1); otherwise the
// block is decoded from k mutually consistent shards carrying the
// latest version (Case 2), gathered in parallel and terminated as soon
// as a decodable set is in hand ("first-k").
//
// A cancelled or expired context aborts the read; the returned OpError
// wraps the context's error.
func (s *System) ReadBlock(ctx context.Context, st Stripe, block int) ([]byte, uint64, error) {
	if block < 0 || block >= s.code.K() {
		return nil, 0, fmt.Errorf("%w: %d of k=%d", ErrBadIndex, block, s.code.K())
	}
	if err := s.check(st); err != nil {
		return nil, 0, err
	}
	data, version, err := s.readBlock(ctx, st, block)
	if err != nil {
		s.metrics.FailedReads.Add(1)
		return nil, 0, err
	}
	return data, version, nil
}

// readRetryLimit bounds how often a read chases a version that
// concurrent writes moved past mid-flight.
const readRetryLimit = 4

// dataNodeState classifies what the version check learned about the
// data node N_i relative to the winning version.
type dataNodeState int

const (
	// dataNodeUnknown: the probe was cancelled by the early
	// termination before it settled — freshness unknown, the direct
	// read is attempted optimistically (the chunk read re-verifies).
	dataNodeUnknown dataNodeState = iota
	// dataNodeFresh: N_i answered with the winning version.
	dataNodeFresh
	// dataNodeStale: N_i answered with an older version.
	dataNodeStale
	// dataNodeFailed: N_i's probe errored (down or missing chunk).
	dataNodeFailed
)

// readBlock is ReadBlock without metrics/validation, shared with the
// write path's initial read.
//
// The decode path can race concurrent writers: the check quorum pins
// "latest = v", but by the time the shards are gathered every parity
// has moved to v+1 and no consistent set at v exists any more. That
// is not a failure of the stripe — re-running the version check
// observes the newer version and succeeds. The retry is bounded; a
// stripe under relentless write pressure can still report
// ErrNotReadable, which callers treat like any other transient quorum
// failure.
func (s *System) readBlock(ctx context.Context, st Stripe, block int) ([]byte, uint64, error) {
	// wrap keeps every failure of this read behind one OpError, so
	// errors.As works uniformly across the version-check, decode and
	// cancellation paths.
	wrap := func(err error) error {
		return &OpError{Op: "read", Stripe: st.ID, Block: block, Level: -1, Node: -1, Err: err}
	}
	lastVersion := client.NoVersion
	var lastErr error
	for attempt := 0; attempt < readRetryLimit; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, wrap(err)
		}
		checkStart := time.Now()
		version, ni, expect, ok := s.checkVersion(ctx, st, block)
		quorumElapsed := time.Since(checkStart)
		if !ok {
			if err := ctx.Err(); err != nil {
				return nil, 0, wrap(err)
			}
			return nil, 0, wrap(fmt.Errorf("%w: no level reached its version check threshold", ErrNotReadable))
		}
		if attempt > 0 && version == lastVersion {
			// No concurrent progress: the previous decode failure was
			// a genuine availability gap, not a race.
			if cerr := ctx.Err(); cerr != nil {
				return nil, 0, wrap(cerr)
			}
			return nil, 0, wrap(lastErr)
		}
		lastVersion = version
		// Case 1: read directly from the data node when its probe
		// settled with (at least) the latest version — it just
		// answered the quorum promptly, so a blocking read is safe.
		if ni == dataNodeFresh {
			if !expect.known {
				// The winning quorum settled without a single parity
				// opinion (possible when a one-node level wins): gather
				// opinions explicitly before trusting the data node's
				// bytes, or a lying N_i could self-certify.
				expect = s.gatherExpected(ctx, st, block, version)
			}
			if data, served, ok := s.tryDirectRead(ctx, st, block, version, expect); ok {
				s.metrics.DirectReads.Add(1)
				return data, served, nil
			}
			// The node failed, lagged, or served bytes the record
			// majority disavows; fall through to the decode path.
		}
		// The data node's probe never settled (cancelled by the early
		// termination): attempt the direct read optimistically — the
		// chunk read re-verifies the version, so it can never serve
		// stale data — but only trust the node for a grace period
		// scaled to how fast the rest of the quorum answered; past it
		// the node is treated as a straggler and the decode path races
		// the still-pending read, so a slow data node never gates the
		// block (the first-k guarantee).
		if ni == dataNodeUnknown {
			grace := 2 * quorumElapsed
			if grace < directReadGraceFloor {
				grace = directReadGraceFloor
			}
			data, served, direct, derr := s.directOrDecode(ctx, st, block, version, expect, grace)
			if derr == nil {
				if direct {
					s.metrics.DirectReads.Add(1)
				} else {
					s.metrics.DecodeReads.Add(1)
				}
				return data, served, nil
			}
			lastErr = derr
			continue
		}
		// Case 2: decode from k consistent shards at the latest version.
		data, err := s.decodeBlock(ctx, st, block, version, expect)
		if err == nil {
			s.metrics.DecodeReads.Add(1)
			return data, version, nil
		}
		lastErr = err
	}
	if cerr := ctx.Err(); cerr != nil {
		// The shards stopped answering because the context died, not
		// because the stripe degraded.
		return nil, 0, wrap(cerr)
	}
	return nil, 0, wrap(lastErr)
}

// tryDirectRead is the Case-1 primitive shared by the fresh path and
// the optimistic race: read the block from its data node (hedged) and
// accept only a chunk carrying at least the target version. The ≥
// acceptance mirrors the sequential engine: a node ahead of the
// pinned version holds either a concurrent writer's in-flight update
// or unrepaired residue, both of which the sequential scan — which
// always counted N_i's probe into the version maximum — served the
// same way (the residue anomaly is documented and demonstrated in the
// safety tests; the paper assumes concurrency control above the
// protocol).
// When an expected content hash is known, a chunk served exactly at
// the pinned version must match it — bytes the record majority
// disavows are never returned; the read falls back to decoding from
// survivors and the culprit is reported. A chunk ahead of the pinned
// version belongs to a concurrent writer whose record quorum is still
// forming and is served as before.
func (s *System) tryDirectRead(ctx context.Context, st Stripe, block int, version uint64, expect sumOpinion) ([]byte, uint64, bool) {
	chunk, err := hedged(ctx, s.hedge, func(hctx context.Context) (client.Chunk, error) {
		return s.node(st, block).ReadChunk(hctx, chunkID(st.ID, block))
	})
	if err != nil {
		if isCorruptErr(err) {
			s.reportCorrupt(st, block)
		}
		return nil, 0, false
	}
	if len(chunk.Versions) == 0 || chunk.Versions[0] < version {
		return nil, 0, false
	}
	if expect.known && chunk.Versions[0] == version && erasure.Sum64(chunk.Data) != expect.sum {
		s.reportCorrupt(st, block)
		return nil, 0, false
	}
	return chunk.Data, chunk.Versions[0], true
}

// directReadGraceFloor is the minimum time a read with an unsettled
// data-node probe trusts the optimistic direct read before racing the
// decode path against it. Generous on purpose: on a healthy cluster
// the direct read settles orders of magnitude sooner, so the decode
// race — whose outcome depends on scheduling — practically never
// starts unless the node really is a straggler.
const directReadGraceFloor = 50 * time.Millisecond

// directOrDecode resolves Case 1 vs Case 2 of Algorithm 2 when the
// data node's freshness is unknown (its probe was cancelled by the
// version check's early termination). The direct read is issued
// immediately; if it settles within the grace period the result
// decides the case on its own (success: direct; stale or error:
// plain decode). Past the grace the node is suspected of straggling
// and the decode runs concurrently — the first usable result wins and
// the loser is cancelled. direct reports which path served the block.
func (s *System) directOrDecode(ctx context.Context, st Stripe, block int, version uint64, expect sumOpinion, grace time.Duration) (data []byte, served uint64, direct bool, err error) {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type directRes struct {
		data    []byte
		version uint64
		ok      bool
	}
	directCh := make(chan directRes, 1)
	go func() {
		d, v, ok := s.tryDirectRead(cctx, st, block, version, expect)
		directCh <- directRes{data: d, version: v, ok: ok}
	}()
	timer := time.NewTimer(grace)
	defer timer.Stop()
	select {
	case r := <-directCh:
		if r.ok {
			return r.data, r.version, true, nil
		}
		// The node answered promptly but stale/failed: normal decode.
		data, err = s.decodeBlock(ctx, st, block, version, expect)
		return data, version, false, err
	case <-timer.C:
	}
	// Straggler suspected: race the decode against the pending read.
	type decodeRes struct {
		data []byte
		err  error
	}
	decodeCh := make(chan decodeRes, 1)
	go func() {
		d, derr := s.decodeBlock(cctx, st, block, version, expect)
		decodeCh <- decodeRes{data: d, err: derr}
	}()
	var decodeErr error
	directDone, decodeDone := false, false
	for !directDone || !decodeDone {
		select {
		case r := <-directCh:
			directDone = true
			if r.ok {
				return r.data, r.version, true, nil
			}
		case r := <-decodeCh:
			decodeDone = true
			if r.err == nil {
				return r.data, version, false, nil
			}
			decodeErr = r.err
			// Decode failed. Under write contention this is usually
			// the pinned-version race that readBlock's retry loop
			// exists to absorb — so give the pending direct read only
			// a bounded extension (it is the last hope if the gap is
			// genuine), then return the decode error and let the
			// caller re-check the version instead of stalling behind
			// the straggler.
			timer.Reset(4 * grace)
		case <-timer.C:
			if decodeDone {
				return nil, 0, false, decodeErr
			}
		}
	}
	return nil, 0, false, decodeErr
}

// verProbe is one version-probe answer: the shard's version vector
// plus its cross-checksum record, carried together through the fan-out.
type verProbe struct {
	versions []uint64
	sums     []client.BlockSum
}

// checkVersion performs Step 1 of Algorithm 2 concurrently: one
// version probe per trapezoid position, all levels in flight at once.
// The first level to reach its read threshold wins (any level's
// threshold guarantees overlap with every committed write at that
// level, so racing the levels is sound); the winner's version is the
// maximum among its first r_l valid answers, exactly as the
// sequential scan took the max of the first r_l responders. ok=false
// means every level settled without reaching its threshold.
//
// Alongside the version, the probes' cross-checksum records are
// tallied into the expected content hash of the block at the winning
// version (parity opinions only — the data node's own record must not
// vouch for its own bytes), so Step 2 can verify what it serves.
func (s *System) checkVersion(ctx context.Context, st Stripe, block int) (version uint64, ni dataNodeState, expect sumOpinion, ok bool) {
	cfg := s.lay.Config()
	type probe struct {
		level int
		pos   int
		shard int
	}
	var probes []probe
	type levelState struct {
		need    int
		total   int
		counted int
		settled int
		dead    bool
		version uint64
	}
	levels := make([]levelState, cfg.Shape.H+1)
	for l := 0; l <= cfg.Shape.H; l++ {
		positions := s.lay.Level(l)
		levels[l] = levelState{need: cfg.ReadThreshold(l), total: len(positions), version: client.NoVersion}
		for _, pos := range positions {
			probes = append(probes, probe{level: l, pos: pos, shard: s.shardForPosition(block, pos)})
		}
	}
	winner := -1
	dead := 0
	var niVersion uint64
	niState := dataNodeUnknown
	recs := make([][]client.BlockSum, len(probes))
	Fanout(ctx, s.opLimit(), len(probes), func(cctx context.Context, i int) (verProbe, error) {
		return hedged(cctx, s.hedge, func(hctx context.Context) (verProbe, error) {
			vers, sums, err := s.node(st, probes[i].shard).ReadVersions(hctx, chunkID(st.ID, probes[i].shard))
			return verProbe{versions: vers, sums: sums}, err
		})
	}, func(i int, pr verProbe, err error) bool {
		if err != nil && isCorruptErr(err) {
			// A quarantined or self-detected-rotten chunk surfaced on the
			// probe path: record the observation even though the probe
			// itself just reads as failed.
			s.reportCorrupt(st, probes[i].shard)
		}
		if winner >= 0 || dead > cfg.Shape.H {
			return true // decided; late stragglers carry no new information
		}
		p := probes[i]
		lv := &levels[p.level]
		lv.settled++
		v, valid := uint64(0), false
		if err == nil {
			v, valid = s.versionOfShard(block, p.shard, pr.versions)
		}
		if valid {
			if p.pos != 0 {
				recs[i] = pr.sums
			}
			if p.pos == 0 {
				niState = dataNodeFresh // refined against the winner below
				niVersion = v
			}
			if lv.counted == 0 || v > lv.version {
				lv.version = v
			}
			lv.counted++
			if lv.counted == lv.need {
				winner = p.level
				return false // quorum in hand: cancel the stragglers
			}
		} else {
			if p.pos == 0 {
				niState = dataNodeFailed
			}
			if !lv.dead && lv.counted+(lv.total-lv.settled) < lv.need {
				lv.dead = true
				dead++
				if dead > cfg.Shape.H {
					return false // no level can reach its threshold any more
				}
			}
		}
		return true
	})
	if winner < 0 {
		return 0, dataNodeUnknown, sumOpinion{}, false
	}
	version = levels[winner].version
	if niState == dataNodeFresh && niVersion < version {
		niState = dataNodeStale
	}
	tally := make(map[uint64]int)
	for _, rec := range recs {
		tallyOpinion(tally, rec, block, version)
	}
	return version, niState, pluralitySum(tally), true
}

// decodeBlock implements Case 2 of Algorithm 2: reconstruct data block
// `block` at the target version from any k mutually consistent shards
// (see stripeview.go for the rule). The block's own shard never counts:
// it is stale or suspect here — Case 1 handles it fresh.
//
// All n chunk reads are issued in parallel, hedged, and the gather
// stops as soon as some set reaches k members ("first-k"), cancelling
// the straggler reads. Any k mutually consistent shards of an MDS code
// decode the same bytes, so taking the first viable set instead of the
// largest changes nothing but the latency.
func (s *System) decodeBlock(ctx context.Context, st Stripe, block int, version uint64, expect sumOpinion) ([]byte, error) {
	// The hook runs after every answer that can change the sets, so
	// when the gather returns they are the final view's.
	var sets []consistentSet
	view := s.gather(ctx, st, -1, gatherOpt{hedge: true, stop: func(v *stripeView) bool {
		sets = v.decodableSets(block, version, block)
		return len(sets) > 0
	}})
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
