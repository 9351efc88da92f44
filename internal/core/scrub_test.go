package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"trapquorum/internal/sim"
)

func TestScrubHealthyStripe(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 64)
	rep, err := ts.sys.ScrubStripe(context.Background(), ts.stripe(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy {
		t.Fatalf("fresh stripe reported unhealthy: %v", rep)
	}
	if len(rep.FreshVector) != 8 {
		t.Fatalf("vector = %v", rep.FreshVector)
	}
	for _, v := range rep.FreshVector {
		if v != 1 {
			t.Fatalf("vector = %v, want all ones", rep.FreshVector)
		}
	}
	if !strings.Contains(rep.String(), "HEALTHY") {
		t.Fatalf("summary = %q", rep.String())
	}
}

func TestScrubUnknownStripe(t *testing.T) {
	ts := fig3System(t, Options{})
	if _, err := ts.sys.ScrubStripe(context.Background(), ts.stripe(9)); !errors.Is(err, ErrUnknownStripe) {
		t.Fatalf("err = %v", err)
	}
}

func TestScrubDetectsStaleShards(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 64)
	// Degraded write: parity shards 13 and 14 miss the delta.
	ts.cluster.Crash(13)
	ts.cluster.Crash(14)
	if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 2, bytes.Repeat([]byte{0xAB}, 64)); err != nil {
		t.Fatal(err)
	}
	ts.cluster.Restart(13)
	ts.cluster.Restart(14)
	rep, err := ts.sys.ScrubStripe(context.Background(), ts.stripe(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy {
		t.Fatal("stale stripe reported healthy")
	}
	if len(rep.StaleShards) != 2 || rep.StaleShards[0] != 13 || rep.StaleShards[1] != 14 {
		t.Fatalf("stale = %v, want [13 14]", rep.StaleShards)
	}
	if rep.FreshVector[2] != 2 {
		t.Fatalf("vector = %v, slot 2 should be 2", rep.FreshVector)
	}
	// RepairStripe clears the finding.
	if _, _, err := ts.sys.RepairStripe(context.Background(), ts.stripe(1)); err != nil {
		t.Fatal(err)
	}
	rep, err = ts.sys.ScrubStripe(context.Background(), ts.stripe(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy {
		t.Fatalf("post-repair scrub: %v", rep)
	}
}

func TestScrubDetectsUnreachable(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 64)
	ts.cluster.Crash(4)
	ts.cluster.Crash(11)
	rep, err := ts.sys.ScrubStripe(context.Background(), ts.stripe(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy {
		t.Fatal("stripe with unreachable nodes reported healthy")
	}
	if len(rep.UnreachableShards) != 2 || rep.UnreachableShards[0] != 4 || rep.UnreachableShards[1] != 11 {
		t.Fatalf("unreachable = %v", rep.UnreachableShards)
	}
}

// TestScrubFailedWriteResidueIsFreshest documents a subtle residue
// property: a failed write's level-0 footprint (data node plus two
// parities) together with the 7 untouched data shards forms a
// 10-member consistent group — *larger and fresher* than the
// pre-write state. The scrubber therefore reports the bystander
// parities as stale rather than the residue as ahead, matching the
// read path (which serves the residue value, as the hazard test
// shows).
func TestScrubFailedWriteResidueIsFreshest(t *testing.T) {
	ts := fig3System(t, Options{DisableRollback: true})
	ts.seed(t, 1, 64)
	ts.cluster.Crash(12)
	ts.cluster.Crash(13)
	ts.cluster.Crash(14)
	if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 2, bytes.Repeat([]byte{0x11}, 64)); !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("err = %v", err)
	}
	ts.cluster.Restart(12)
	ts.cluster.Restart(13)
	ts.cluster.Restart(14)
	rep, err := ts.sys.ScrubStripe(context.Background(), ts.stripe(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy {
		t.Fatal("residue-poisoned stripe reported healthy")
	}
	if rep.FreshVector[2] != 2 {
		t.Fatalf("fresh vector %v should adopt the residue version", rep.FreshVector)
	}
	// The failed write updated the two reachable level-1 parities
	// (10, 11) before giving up, so only the crashed three lag.
	if len(rep.StaleShards) != 3 || rep.StaleShards[0] != 12 {
		t.Fatalf("stale = %v, want [12 13 14]", rep.StaleShards)
	}
}

// TestScrubDetectsAheadResidue injects a node whose version vector has
// run ahead of anything rebuildable (a crash between update and
// rollback): the scrubber must flag it as ahead and leave the fresh
// vector at the consistent state.
func TestScrubDetectsAheadResidue(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 64)
	chunk, err := ts.shardNode(10).ReadChunk(context.Background(), sim.ChunkID{Stripe: 1, Shard: 10})
	if err != nil {
		t.Fatal(err)
	}
	clean := append([]uint64(nil), chunk.Versions...)
	// Orphaned future versions in *two* slots: with only one, the
	// orphan plus the 7 non-conflicting data shards would still form
	// a k-member group and win as "freshest" — version metadata alone
	// cannot distinguish that from a real committed write.
	chunk.Versions[3] = 99
	chunk.Versions[5] = 99
	if err := ts.shardNode(10).PutChunk(context.Background(), sim.ChunkID{Stripe: 1, Shard: 10}, chunk.Data, chunk.Versions); err != nil {
		t.Fatal(err)
	}
	rep, err := ts.sys.ScrubStripe(context.Background(), ts.stripe(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy {
		t.Fatal("ahead residue missed")
	}
	if len(rep.AheadShards) != 1 || rep.AheadShards[0] != 10 {
		t.Fatalf("ahead = %v, want [10]", rep.AheadShards)
	}
	if rep.FreshVector[3] != 1 || rep.FreshVector[5] != 1 {
		t.Fatalf("fresh vector %v polluted by the orphan", rep.FreshVector)
	}
	// RepairStripe leaves the ahead shard alone (it cannot know the
	// orphan version is garbage), and no public path discards residue:
	// the test puts the clean chunk back at the node itself.
	if _, ahead, err := ts.sys.RepairStripe(context.Background(), ts.stripe(1)); err != nil {
		t.Fatal(err)
	} else if len(ahead) != 1 || ahead[0] != 10 {
		t.Fatalf("RepairStripe ahead = %v", ahead)
	}
	if err := ts.shardNode(10).PutChunk(context.Background(), sim.ChunkID{Stripe: 1, Shard: 10}, chunk.Data, clean, chunk.Sums...); err != nil {
		t.Fatal(err)
	}
	rep, err = ts.sys.ScrubStripe(context.Background(), ts.stripe(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy {
		t.Fatalf("scrub after clearing the residue: %v", rep)
	}
}

func TestScrubDetectsSilentCorruption(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 64)
	// Flip bytes on a parity node without touching versions: only the
	// byte-level parity re-derivation can catch this.
	chunk, err := ts.shardNode(10).ReadChunk(context.Background(), sim.ChunkID{Stripe: 1, Shard: 10})
	if err != nil {
		t.Fatal(err)
	}
	chunk.Data[5] ^= 0xFF
	if err := ts.shardNode(10).PutChunk(context.Background(), sim.ChunkID{Stripe: 1, Shard: 10}, chunk.Data, chunk.Versions); err != nil {
		t.Fatal(err)
	}
	rep, err := ts.sys.ScrubStripe(context.Background(), ts.stripe(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy || !rep.ParityMismatch {
		t.Fatalf("silent corruption missed: %v", rep)
	}
	// Force-repairing the corrupted shard clears it (the guarded
	// repair also works here: versions are unchanged, so the rebuilt
	// chunk installs over the corrupt bytes).
	if err := ts.sys.RepairShard(context.Background(), ts.stripe(1), 10); err != nil {
		t.Fatal(err)
	}
	rep, err = ts.sys.ScrubStripe(context.Background(), ts.stripe(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy {
		t.Fatalf("post-repair scrub: %v", rep)
	}
}

func TestScrubNoConsistentSet(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 64)
	// Crash all but 5 nodes: fewer than k = 8 shards reachable.
	for j := 0; j < 10; j++ {
		ts.cluster.Crash(j)
	}
	rep, err := ts.sys.ScrubStripe(context.Background(), ts.stripe(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy || rep.FreshVector != nil {
		t.Fatalf("report = %v", rep)
	}
	if len(rep.UnreachableShards) != 10 {
		t.Fatalf("unreachable = %v", rep.UnreachableShards)
	}
}
