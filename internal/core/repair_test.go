package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"trapquorum/internal/sim"
)

func TestRepairShardAfterWipe(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 64)
	// Snapshot every chunk before the failure.
	before := make([]sim.Chunk, ts.code.N())
	for j := range before {
		chunk, err := ts.shardNode(j).ReadChunk(context.Background(), sim.ChunkID{Stripe: 1, Shard: j})
		if err != nil {
			t.Fatal(err)
		}
		before[j] = chunk
	}
	for _, victim := range []int{0, 5, 8, 14} { // data and parity shards
		ts.cluster.Crash(victim)
		ts.cluster.Restart(victim)
		if err := ts.shardNode(victim).Wipe(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := ts.sys.RepairShard(context.Background(), ts.stripe(1), victim); err != nil {
			t.Fatalf("repair %d: %v", victim, err)
		}
		after, err := ts.shardNode(victim).ReadChunk(context.Background(), sim.ChunkID{Stripe: 1, Shard: victim})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after.Data, before[victim].Data) {
			t.Fatalf("shard %d: repaired content differs", victim)
		}
		if len(after.Versions) != len(before[victim].Versions) {
			t.Fatalf("shard %d: version vector shape changed", victim)
		}
		for s, v := range before[victim].Versions {
			if after.Versions[s] != v {
				t.Fatalf("shard %d: version slot %d = %d, want %d", victim, s, after.Versions[s], v)
			}
		}
	}
}

func TestRepairPicksUpLaterWrites(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 64)
	// Node 10 (parity) dies; the system keeps accepting writes.
	ts.cluster.Crash(10)
	r := rand.New(rand.NewSource(4))
	want := make([][]byte, ts.code.K())
	for i := 0; i < ts.code.K(); i++ {
		x := make([]byte, 64)
		r.Read(x)
		if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), i, x); err != nil {
			t.Fatal(err)
		}
		want[i] = x
	}
	// Node returns with an empty disk and gets repaired.
	ts.cluster.Restart(10)
	if err := ts.shardNode(10).Wipe(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ts.sys.RepairShard(context.Background(), ts.stripe(1), 10); err != nil {
		t.Fatal(err)
	}
	// The repaired parity must carry version 2 for every block and be
	// code-consistent with the current data.
	chunk, err := ts.shardNode(10).ReadChunk(context.Background(), sim.ChunkID{Stripe: 1, Shard: 10})
	if err != nil {
		t.Fatal(err)
	}
	for s, v := range chunk.Versions {
		if v != 2 {
			t.Fatalf("slot %d version = %d, want 2", s, v)
		}
	}
	shards := make([][]byte, ts.code.N())
	for j := range shards {
		c, err := ts.shardNode(j).ReadChunk(context.Background(), sim.ChunkID{Stripe: 1, Shard: j})
		if err != nil {
			t.Fatal(err)
		}
		shards[j] = c.Data
	}
	ok, err := ts.code.Verify(shards)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("repaired stripe violates the code")
	}
	// And the repaired node participates in future writes: no more
	// version rejects on it.
	if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 0, want[0]); err != nil {
		t.Fatal(err)
	}
}

func TestRepairNodeAcrossStripes(t *testing.T) {
	ts := fig3System(t, Options{})
	for stripe := uint64(1); stripe <= 4; stripe++ {
		ts.seed(t, stripe, 32)
	}
	ts.cluster.Crash(9)
	ts.cluster.Restart(9)
	if err := ts.shardNode(9).Wipe(context.Background()); err != nil {
		t.Fatal(err)
	}
	repaired, err := ts.repairNode(context.Background(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if repaired != 4 {
		t.Fatalf("repaired %d stripes, want 4", repaired)
	}
	for stripe := uint64(1); stripe <= 4; stripe++ {
		if ok, _ := ts.shardNode(9).HasChunk(context.Background(), sim.ChunkID{Stripe: stripe, Shard: 9}); !ok {
			t.Fatalf("stripe %d not repaired", stripe)
		}
	}
	if m := ts.sys.Metrics(); m.Repairs != 4 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestRepairValidation(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 32)
	if err := ts.sys.RepairShard(context.Background(), ts.stripe(1), 15); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("err = %v", err)
	}
	if err := ts.sys.RepairShard(context.Background(), ts.stripe(9), 0); !errors.Is(err, ErrUnknownStripe) {
		t.Fatalf("err = %v", err)
	}
}

func TestRepairFailsWithTooFewSurvivors(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 32)
	// Leave only k-1 = 7 nodes up besides the repair target.
	for _, j := range []int{0, 1, 2, 3, 4, 5, 6, 7} {
		ts.cluster.Crash(j)
	}
	if err := ts.sys.RepairShard(context.Background(), ts.stripe(1), 14); !errors.Is(err, ErrNotReadable) {
		t.Fatalf("err = %v", err)
	}
}

func TestRepairTargetNodeMustBeUp(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 32)
	ts.cluster.Crash(11)
	if err := ts.sys.RepairShard(context.Background(), ts.stripe(1), 11); err == nil {
		t.Fatal("repair onto a down node succeeded")
	}
}

func TestRepairNodePartialFailure(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 32)
	ts.seed(t, 2, 32)
	// Stripe 2 becomes unrecoverable: crash 8 source nodes.
	// Stripe 1 stays healthy. RepairNode(14) must repair stripe 1 and
	// report the stripe-2 failure.
	ts.cluster.Crash(14)
	ts.cluster.Restart(14)
	if err := ts.shardNode(14).Wipe(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Make only stripe 2 unrecoverable by deleting its chunks from 8
	// source nodes (nodes stay up so stripe 1 is unaffected): the six
	// surviving parity chunks are fewer than k = 8.
	for _, j := range []int{0, 1, 2, 3, 4, 5, 6, 7} {
		if err := ts.shardNode(j).DeleteChunk(context.Background(), sim.ChunkID{Stripe: 2, Shard: j}); err != nil {
			t.Fatal(err)
		}
	}
	repaired, err := ts.repairNode(context.Background(), 14)
	if err == nil {
		t.Fatal("expected an error for the unrecoverable stripe")
	}
	if repaired != 1 {
		t.Fatalf("repaired = %d, want 1 (stripe 1 only)", repaired)
	}
}
