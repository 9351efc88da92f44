package core

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"trapquorum/internal/erasure"
	"trapquorum/internal/sim"
	"trapquorum/internal/trapezoid"
)

// TRAP-FR, the paper's full-replication baseline, is TRAP-ERC at
// k = 1: the systematic (n−k+1, 1) code replicates a block on every
// trapezoid position (position p is shard p), and a write's parity
// delta is new ⊕ old. These tests pin the baseline's behaviour on that
// System. One difference from a blind replica write remains: the k = 1
// write reads the old block first (Algorithm 1), one round more at the
// same availability.

// frSystem builds the Figure-3 trapezoid (8 positions, w = 3) as an
// (8,1) System over a dedicated 8-node cluster.
func frSystem(t testing.TB) *testSystem {
	return newTestSystem(t, 8, 1, trapezoid.Shape{A: 2, B: 3, H: 1}, 3, Options{})
}

// seedBlock installs data as the one block of stripe id.
func (ts *testSystem) seedBlock(id uint64, data []byte) error {
	ts.sizes[id] = len(data)
	return ts.sys.SeedStripe(context.Background(), ts.stripe(id), [][]byte{data})
}

func TestNewFRSystemValidation(t *testing.T) {
	code, _ := erasure.New(8, 1)
	cfg, _ := trapezoid.NewConfig(trapezoid.Shape{A: 2, B: 3, H: 1}, 3)
	cluster, _ := sim.NewCluster(8)
	defer cluster.Close()
	nodes := make([]NodeClient, 8)
	for i := range nodes {
		nodes[i] = cluster.Node(i)
	}
	if _, err := NewSystem(code, cfg, nodes[:7], Options{}); err == nil {
		t.Error("wrong node count accepted")
	}
	bad := append([]NodeClient(nil), nodes...)
	bad[2] = nil
	if _, err := NewSystem(code, cfg, bad, Options{}); err == nil {
		t.Error("nil node accepted")
	}
	wide, _ := trapezoid.NewConfig(trapezoid.Shape{A: 2, B: 3, H: 2}, 3)
	if _, err := NewSystem(code, wide, nodes, Options{}); err == nil {
		t.Error("trapezoid of 15 positions accepted for 8 replicas")
	}
}

func TestFRSeedReadWrite(t *testing.T) {
	ts := frSystem(t)
	data := []byte("replicated block")
	if err := ts.seedBlock(1, data); err != nil {
		t.Fatal(err)
	}
	got, version, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 || !bytes.Equal(got, data) {
		t.Fatalf("got v%d %q", version, got)
	}
	next := []byte("updated contents")
	if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 0, next); err != nil {
		t.Fatal(err)
	}
	got, version, err = ts.sys.ReadBlock(context.Background(), ts.stripe(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 || !bytes.Equal(got, next) {
		t.Fatalf("got v%d %q", version, got)
	}
	// Every position holds the block verbatim: full replication.
	for j := 0; j < 8; j++ {
		chunk, err := ts.cluster.Node(j).ReadChunk(context.Background(), sim.ChunkID{Stripe: 1, Shard: j})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(chunk.Data, next) {
			t.Fatalf("position %d holds %q, not a replica", j, chunk.Data)
		}
	}
}

func TestFRValidationErrors(t *testing.T) {
	ts := frSystem(t)
	ctx := context.Background()
	if err := ts.sys.SeedStripe(ctx, identityStripe(1, 8, 2), [][]byte{{1}}); !errors.Is(err, ErrBlockSize) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := ts.sys.ReadBlock(ctx, ts.stripe(9), 0); !errors.Is(err, ErrUnknownStripe) {
		t.Fatalf("err = %v", err)
	}
	if err := ts.sys.WriteBlock(ctx, ts.stripe(9), 0, []byte{1}); !errors.Is(err, ErrUnknownStripe) {
		t.Fatalf("err = %v", err)
	}
	if err := ts.seedBlock(1, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := ts.sys.WriteBlock(ctx, ts.stripe(1), 0, []byte{1}); !errors.Is(err, ErrBlockSize) {
		t.Fatalf("err = %v", err)
	}
	if err := ts.sys.WriteBlock(ctx, ts.stripe(1), 1, []byte{1, 2}); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("err = %v", err)
	}
}

func TestFRSeedRequiresAllNodes(t *testing.T) {
	ts := frSystem(t)
	ts.cluster.Crash(5)
	if err := ts.seedBlock(1, []byte{1}); !errors.Is(err, ErrSeedIncomplete) {
		t.Fatalf("err = %v", err)
	}
}

func TestFRReadSurvivesMinorityFailures(t *testing.T) {
	ts := frSystem(t)
	data := []byte("hold on")
	if err := ts.seedBlock(1, data); err != nil {
		t.Fatal(err)
	}
	// Positions: level 0 = {0,1,2} (r_0=2), level 1 = {3..7} (r_1=3).
	ts.cluster.Crash(0)
	ts.cluster.Crash(3)
	ts.cluster.Crash(4)
	got, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("wrong replica content")
	}
}

func TestFRReadFailsWhenChecksStarved(t *testing.T) {
	ts := frSystem(t)
	if err := ts.seedBlock(1, []byte{7}); err != nil {
		t.Fatal(err)
	}
	// Break level 0 (need 2 of 3) and level 1 (need 3 of 5).
	for _, p := range []int{0, 1, 3, 4, 5} {
		ts.cluster.Crash(p)
	}
	if _, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 0); !errors.Is(err, ErrNotReadable) {
		t.Fatalf("err = %v", err)
	}
	if m := ts.sys.Metrics(); m.FailedReads != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestFRWriteQuorumFailureRollsBack(t *testing.T) {
	ts := frSystem(t)
	data := []byte("stable")
	if err := ts.seedBlock(1, data); err != nil {
		t.Fatal(err)
	}
	// Starve level 1: crash 3 of its 5 nodes (w_1 = 3).
	ts.cluster.Crash(5)
	ts.cluster.Crash(6)
	ts.cluster.Crash(7)
	if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 0, []byte("newval")); !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("err = %v", err)
	}
	got, version, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 || !bytes.Equal(got, data) {
		t.Fatalf("rollback incomplete: v%d %q", version, got)
	}
	if m := ts.sys.Metrics(); m.Rollbacks != 1 || m.FailedWrites != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestFRWriteToleratesPartialLevel(t *testing.T) {
	ts := frSystem(t)
	if err := ts.seedBlock(1, []byte("aaaa")); err != nil {
		t.Fatal(err)
	}
	// 2 of level 1 down: 3 remain = w_1. 1 of level 0 down: 2 = w_0.
	ts.cluster.Crash(2)
	ts.cluster.Crash(6)
	ts.cluster.Crash(7)
	if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 0, []byte("bbbb")); err != nil {
		t.Fatal(err)
	}
	got, version, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 || string(got) != "bbbb" {
		t.Fatalf("v%d %q", version, got)
	}
	// Revived nodes are stale but reads still find the latest version
	// through the quorum intersection.
	ts.cluster.Restart(2)
	got, _, err = ts.sys.ReadBlock(context.Background(), ts.stripe(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "bbbb" {
		t.Fatal("stale replica leaked")
	}
}

// TestFRRepairReplica rebuilds a replica that missed a write through
// the shard repair every stripe shares.
func TestFRRepairReplica(t *testing.T) {
	ts := frSystem(t)
	ctx := context.Background()
	if err := ts.seedBlock(1, []byte("v1data")); err != nil {
		t.Fatal(err)
	}
	ts.cluster.Crash(4)
	if err := ts.sys.WriteBlock(ctx, ts.stripe(1), 0, []byte("v2data")); err != nil {
		t.Fatal(err)
	}
	ts.cluster.Restart(4)
	if err := ts.sys.RepairShard(ctx, ts.stripe(1), 4); err != nil {
		t.Fatal(err)
	}
	chunk, err := ts.cluster.Node(4).ReadChunk(ctx, sim.ChunkID{Stripe: 1, Shard: 4})
	if err != nil {
		t.Fatal(err)
	}
	if string(chunk.Data) != "v2data" || chunk.Versions[0] != 2 {
		t.Fatalf("repaired replica = v%d %q", chunk.Versions[0], chunk.Data)
	}
	if err := ts.sys.RepairShard(ctx, ts.stripe(1), 9); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("err = %v", err)
	}
	if err := ts.sys.RepairShard(ctx, ts.stripe(7), 4); !errors.Is(err, ErrUnknownStripe) {
		t.Fatalf("err = %v", err)
	}
}

// TestFRLinearizabilityUnderCrashSchedules runs the ERC safety
// schedule on the full-replication system.
func TestFRLinearizabilityUnderCrashSchedules(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		runCrashSchedule(t, frSystem(t), seed, 250)
	}
}

// BenchmarkFRWrite measures one TRAP-FR block write: the full block
// travels to |WQ| = 5 replicas, versus TRAP-ERC's one block plus four
// deltas — compare with BenchmarkProtocolEndToEndWrite in the root
// package (A6 experiment). At k = 1 the delta is as large as the block.
func BenchmarkFRWrite(b *testing.B) {
	ts := frSystem(b)
	data := bytes.Repeat([]byte{1}, 4096)
	if err := ts.seedBlock(1, data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 0, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFRRead(b *testing.B) {
	ts := frSystem(b)
	data := bytes.Repeat([]byte{1}, 4096)
	if err := ts.seedBlock(1, data); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 0); err != nil {
			b.Fatal(err)
		}
	}
}
