package core

import (
	"bytes"
	"context"
	"fmt"
	"sort"

	"trapquorum/internal/erasure"
)

// ScrubReport is the outcome of a stripe consistency scan.
type ScrubReport struct {
	Stripe uint64
	// Healthy is true when every reachable shard belongs to one
	// mutually consistent version vector and the parity bytes verify
	// against the data bytes.
	Healthy bool
	// FreshVector is the version vector of the freshest consistent
	// shard set found (nil when none reaches k members).
	FreshVector []uint64
	// StaleShards lists reachable shards whose versions lag the fresh
	// vector in at least one slot.
	StaleShards []int
	// AheadShards lists reachable shards with some slot beyond the
	// fresh vector — failed-write residue or in-flight updates.
	AheadShards []int
	// UnreachableShards lists shards whose nodes did not answer.
	UnreachableShards []int
	// CorruptShards lists shards observed serving wrong bytes: nodes
	// answering client.ErrCorrupt (quarantined or self-detected rot),
	// data shards whose content disagrees with the cross-checksum
	// record majority, and parity shards pinpointed by re-encoding.
	CorruptShards []int
	// ParityMismatch is true when a shard matching the fresh vector
	// holds bytes inconsistent with the erasure code — silent
	// corruption that versions alone cannot explain.
	ParityMismatch bool
}

// String renders a one-line operator summary.
func (r ScrubReport) String() string {
	status := "HEALTHY"
	if !r.Healthy {
		status = "DEGRADED"
	}
	return fmt.Sprintf("stripe %d: %s stale=%v ahead=%v unreachable=%v corrupt=%v parityMismatch=%v",
		r.Stripe, status, r.StaleShards, r.AheadShards, r.UnreachableShards, r.CorruptShards, r.ParityMismatch)
}

// ScrubStripe audits one stripe without modifying anything: it reads
// every shard once, and from that one snapshot finds the freshest
// consistent set, classifies the rest as stale/ahead/unreachable, and —
// when a full stripe at the fresh vector is reachable — re-derives the
// parity bytes to catch corruption that version bookkeeping cannot
// see. The scrubber is the read-only companion of RepairStripe and
// judges by the same rule: run it periodically, repair when it reports
// degradation.
func (s *System) ScrubStripe(ctx context.Context, st Stripe) (ScrubReport, error) {
	if err := s.check(st); err != nil {
		return ScrubReport{}, err
	}
	report := ScrubReport{Stripe: st.ID}
	n, k := s.code.N(), s.code.K()

	view := s.gather(ctx, st, -1, gatherOpt{})
	var vector []uint64
	if set := freshest(view.decodableSets(-1, 0, -1)); set != nil {
		vector = set.vector
	}
	// Shards matching the fresh vector keep their bytes for the content
	// and parity checks below.
	matching := make([][]byte, n)
	for shard, state := range view.classify(vector) {
		switch state {
		case shardFresh:
			matching[shard] = view.shards[shard].data
		case shardStale:
			report.StaleShards = append(report.StaleShards, shard)
		case shardAhead:
			report.AheadShards = append(report.AheadShards, shard)
		case shardUnreachable:
			report.UnreachableShards = append(report.UnreachableShards, shard)
		case shardCorrupt:
			report.CorruptShards = append(report.CorruptShards, shard)
		}
	}
	if vector == nil {
		// No k consistent shards: reachability is all there is to say.
		return report, nil
	}
	report.FreshVector = vector

	// Content verification against the cross-checksum records: each
	// data shard at the fresh vector must match the majority opinion of
	// the reachable parity records. A shard failing it serves bytes its
	// peers disavow — corrupt regardless of what the code says below.
	dataClean := 0
	for shard := 0; shard < k; shard++ {
		if matching[shard] == nil {
			continue
		}
		want := view.opinion(shard, vector[shard], shard)
		if !want.known {
			continue
		}
		if erasure.Sum64(matching[shard]) != want.sum {
			report.CorruptShards = append(report.CorruptShards, shard)
			s.reportCorrupt(st, shard)
			continue
		}
		dataClean++
	}

	// Byte-level verification when the full fresh stripe is in hand.
	full := true
	for shard := 0; shard < n; shard++ {
		if matching[shard] == nil {
			full = false
			break
		}
	}
	if full {
		ok, verr := s.code.Verify(matching)
		if verr != nil {
			return report, verr
		}
		report.ParityMismatch = !ok
		if !ok && dataClean == k {
			// Every data shard passed its record majority, so the data
			// side is trusted: re-encode the parity rows and pinpoint
			// which parity shards hold wrong bytes.
			// Encode returns the full n-shard layout (data rows first);
			// index it by shard, not by parity row.
			encoded, perr := s.code.Encode(matching[:k])
			if perr == nil {
				for j := k; j < n; j++ {
					if !bytes.Equal(encoded[j], matching[j]) {
						report.CorruptShards = append(report.CorruptShards, j)
						s.reportCorrupt(st, j)
					}
				}
			}
		}
	}
	sort.Ints(report.CorruptShards)
	report.Healthy = len(report.StaleShards) == 0 &&
		len(report.AheadShards) == 0 &&
		len(report.UnreachableShards) == 0 &&
		len(report.CorruptShards) == 0 &&
		!report.ParityMismatch
	return report, nil
}
