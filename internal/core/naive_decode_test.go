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

// TestNaiveSlotOnlyDecodeReturnsGarbage documents a soundness gap in
// the paper's Algorithm 2 and shows this implementation avoids it.
//
// Algorithm 2 selects decode shards by checking only V[i] — the
// version of the *target* block folded into each candidate. But two
// shards can both be current for block i while folding different
// versions of some other block j: mixing them makes the linear system
// inconsistent and the decoded block i is garbage. This arises from
// two degraded-but-successful writes to different blocks whose down
// sets differ — no failures beyond the paper's own model are needed.
//
// The test builds exactly that state on a (5,2) code, demonstrates
// that version-blind decoding (the erasure layer fed with the shards
// Algorithm 2's check would accept) yields a wrong block, and that the
// protocol's full-vector grouping instead returns ErrNotReadable —
// trading availability, never correctness. Repairing the stale parity
// then restores readability.
func TestNaiveSlotOnlyDecodeReturnsGarbage(t *testing.T) {
	const n, k = 5, 2
	code, err := erasure.New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	// Trapezoid over n-k+1 = 4 nodes: one flat level, w_0 = 3.
	cfg, err := trapezoid.NewConfig(trapezoid.Shape{A: 0, B: 4, H: 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := sim.NewCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	nodes := make([]NodeClient, n)
	for j := 0; j < n; j++ {
		nodes[j] = cluster.Node(j)
	}
	sys, err := NewSystem(code, cfg, nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const size = 32
	st := identityStripe(1, n, size)
	x0 := bytes.Repeat([]byte{0x10}, size)
	x1 := bytes.Repeat([]byte{0x20}, size)
	if err := sys.SeedStripe(context.Background(), st, [][]byte{x0, x1}); err != nil {
		t.Fatal(err)
	}

	// Degraded write 1: block 0 -> x0new while parity shard 4 is down.
	// Quorum: N0, P2, P3 (3 of the 4 trapezoid nodes).
	x0new := bytes.Repeat([]byte{0x1F}, size)
	cluster.Crash(4)
	if err := sys.WriteBlock(context.Background(), st, 0, x0new); err != nil {
		t.Fatal(err)
	}
	cluster.Restart(4)

	// Degraded write 2: block 1 -> x1new while parity shard 2 is down.
	// Quorum: N1, P3, P4. Now P2 folds (x0new, x1-old) and P4 folds
	// (x0-old, x1new): both partially stale, differently.
	x1new := bytes.Repeat([]byte{0x2F}, size)
	cluster.Crash(2)
	if err := sys.WriteBlock(context.Background(), st, 1, x1new); err != nil {
		t.Fatal(err)
	}
	cluster.Restart(2)

	// Lose the data node of block 0 and the only fully fresh parity.
	cluster.Crash(0)
	cluster.Crash(3)

	// The naive selection: P2 carries version 2 for block 0 (current)
	// and N1 carries version 2 for its own block — both pass
	// Algorithm 2's V[i] check. Feeding them to the erasure decoder
	// (which is version-blind) produces a block that is neither the
	// old nor the new value: silent corruption.
	p2chunk, err := cluster.Node(2).ReadChunk(context.Background(), sim.ChunkID{Stripe: 1, Shard: 2})
	if err != nil {
		t.Fatal(err)
	}
	if p2chunk.Versions[0] != 2 || p2chunk.Versions[1] != 1 {
		t.Fatalf("setup drift: P2 versions = %v, want [2 1]", p2chunk.Versions)
	}
	n1chunk, err := cluster.Node(1).ReadChunk(context.Background(), sim.ChunkID{Stripe: 1, Shard: 1})
	if err != nil {
		t.Fatal(err)
	}
	naiveShards := make([][]byte, n)
	naiveShards[1] = n1chunk.Data // x1new
	naiveShards[2] = p2chunk.Data // folds x0new with x1-old
	naiveBlock0, err := code.DecodeBlock(0, naiveShards)
	if err != nil {
		t.Fatalf("naive decode unexpectedly failed: %v", err)
	}
	if bytes.Equal(naiveBlock0, x0new) || bytes.Equal(naiveBlock0, x0) {
		t.Fatal("expected the naive decode to produce garbage; scenario lost its teeth")
	}

	// The protocol's full-vector grouping refuses instead of lying.
	_, _, err = sys.ReadBlock(context.Background(), st, 0)
	if !errors.Is(err, ErrNotReadable) {
		t.Fatalf("err = %v, want ErrNotReadable (never garbage)", err)
	}

	// Bring the fresh parity back: the group {P3, N1} is consistent
	// at the latest versions and the read returns the correct block.
	cluster.Restart(3)
	got, version, err := sys.ReadBlock(context.Background(), st, 0)
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 || !bytes.Equal(got, x0new) {
		t.Fatalf("recovered read = v%d, wrong content", version)
	}

	// And RepairStripe converges the stragglers without regressing
	// any committed write.
	cluster.RestartAll()
	if _, ahead, err := sys.RepairStripe(context.Background(), st); err != nil {
		t.Fatal(err)
	} else if len(ahead) != 0 {
		t.Fatalf("unexpected ahead shards %v after full heal", ahead)
	}
	for _, blockCheck := range []struct {
		idx  int
		want []byte
	}{{0, x0new}, {1, x1new}} {
		got, _, err := sys.ReadBlock(context.Background(), st, blockCheck.idx)
		if err != nil || !bytes.Equal(got, blockCheck.want) {
			t.Fatalf("post-repair block %d wrong (%v)", blockCheck.idx, err)
		}
	}
}
