package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"trapquorum/client"
	"trapquorum/internal/erasure"
)

// This file is the Byzantine-read half of the protocol: everything
// that turns the cross-checksum records distributed at write time
// (see DESIGN.md §6) into a verified read path. The invariant the
// reader enforces is that a block is only served when its bytes match
// the plurality of *other* nodes' record opinions for the pinned
// version — a node never vouches for its own content.

// sumOpinion is the expected content hash of a block at one version,
// as established by a plurality of parity record opinions. known is
// false when no opinion (or only a tie) was available, in which case
// verification is skipped — the pre-checksum behaviour.
type sumOpinion struct {
	sum   uint64
	known bool
}

// isCorruptErr reports whether a node answer carries the corruption
// sentinel (engine self-sum mismatch or diskstore quarantine).
func isCorruptErr(err error) bool { return errors.Is(err, client.ErrCorrupt) }

// tallyOpinion folds one parity record's opinion about data block
// `block` at `version` into the tally. Records too short for the slot
// or carrying a different (stale or in-flight) version abstain.
func tallyOpinion(tally map[uint64]int, rec []client.BlockSum, block int, version uint64) {
	if block >= len(rec) || rec[block].Version != version {
		return
	}
	tally[rec[block].Sum]++
}

// pluralitySum resolves a tally: the strictly most-voted sum wins; an
// empty tally or a tie between different sums yields unknown (serving
// unverified is the pre-checksum behaviour; inventing a majority from
// a tie would let a single liar veto honest bytes).
func pluralitySum(tally map[uint64]int) sumOpinion {
	best, bestCount, tied := uint64(0), 0, false
	for sum, count := range tally {
		switch {
		case count > bestCount:
			best, bestCount, tied = sum, count, false
		case count == bestCount && sum != best:
			tied = true
		}
	}
	if bestCount == 0 || tied {
		return sumOpinion{}
	}
	return sumOpinion{sum: best, known: true}
}

// verifiedDecode is the escalation path of Case 2: a fast decode
// produced bytes the record plurality disavows, so some member of the
// chosen set lied (or rotted undetected). It gathers every shard with
// no early termination, re-establishes the expected hash from the
// complete record population, then searches survivor sets — the full
// consistent set first, then leave-one-out — until a set of exactly k
// shards decodes to the expected content. The verified basis is then
// used to re-derive every other member's shard and pinpoint which
// node served wrong bytes.
//
// The search is sized for the protocol's stated guarantee (any single
// corrupted shard is detected and recovered): with one bad member,
// dropping it is one of the leave-one-out iterations and the
// remaining members are all honest.
func (s *System) verifiedDecode(ctx context.Context, st Stripe, block int, version uint64, expect sumOpinion) ([]byte, error) {
	view := s.gather(ctx, st, -1, gatherOpt{})
	// The complete record population overrides the caller's opinion
	// (from a partial quorum), which only breaks an unknown outcome.
	if full := view.opinion(block, version, block); full.known {
		expect = full
	}
	if !expect.known {
		return nil, fmt.Errorf("%w: stripe %d block %d version %d: no record majority to verify against", ErrNotReadable, st.ID, block, version)
	}
	for _, set := range view.decodableSets(block, version, block) {
		if out := s.searchVerifiedSet(st, view, block, expect, set.members); out != nil {
			return out, nil
		}
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	return nil, fmt.Errorf("%w: stripe %d block %d version %d: no survivor set of %d shards decodes to the record majority: %w",
		ErrNotReadable, st.ID, block, version, s.code.K(), client.ErrCorrupt)
}

// searchVerifiedSet tries bases of exactly k members — first without
// exclusions, then dropping each member in turn — until one decodes
// block to the expected hash. On success it re-derives every non-basis
// member's shard from the verified basis and reports mismatching
// members as corrupt, then returns the decoded block. nil means no
// basis verified.
func (s *System) searchVerifiedSet(st Stripe, view *stripeView, block int, expect sumOpinion, members []int) []byte {
	n := s.code.N()
	shards := make([][]byte, n)
	inBasis := make([]bool, n)
	for drop := -1; drop < len(members); drop++ {
		for i := range shards {
			shards[i] = nil
			inBasis[i] = false
		}
		basis := 0
		for i, m := range members {
			if i == drop || basis == s.code.K() {
				continue
			}
			shards[m] = view.shards[m].data
			inBasis[m] = true
			basis++
		}
		if basis < s.code.K() {
			return nil // too few members left to form a basis
		}
		out, err := s.code.DecodeBlock(block, shards)
		if err != nil || erasure.Sum64(out) != expect.sum {
			continue
		}
		// Verified basis in hand: every other member's shard is now
		// derivable; members serving different bytes are the culprits.
		for _, m := range members {
			if inBasis[m] {
				continue
			}
			truth, rerr := s.code.RepairShard(m, shards)
			if rerr != nil {
				continue
			}
			if !bytes.Equal(truth, view.shards[m].data) {
				s.reportCorrupt(st, m)
			}
		}
		return out
	}
	return nil
}
