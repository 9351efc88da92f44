package service

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"trapquorum/internal/core"
	"trapquorum/internal/sim"
	"trapquorum/internal/trapezoid"
	"trapquorum/placement"
)

const (
	testClusterSize = 30
	testBlockSize   = 64
)

// clientsOf adapts a simulated cluster to the transport-client slice
// the service layer consumes.
func clientsOf(cluster *sim.Cluster) []core.NodeClient {
	nodes := make([]core.NodeClient, cluster.Size())
	for j := range nodes {
		nodes[j] = cluster.Node(j)
	}
	return nodes
}

func newTestStore(t testing.TB) (*Store, *sim.Cluster) {
	t.Helper()
	cluster, err := sim.NewCluster(testClusterSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	strat, err := placement.NewRing(testClusterSize, 16)
	if err != nil {
		t.Fatal(err)
	}
	store, err := New(clientsOf(cluster), Config{
		N: 15, K: 8,
		Shape: trapezoid.Shape{A: 2, B: 3, H: 1}, W: 3,
		BlockSize: testBlockSize,
		Placement: strat,
	})
	if err != nil {
		t.Fatal(err)
	}
	return store, cluster
}

func TestNewValidation(t *testing.T) {
	cluster, _ := sim.NewCluster(10)
	defer cluster.Close()
	strat, _ := placement.NewRoundRobin(10)
	base := Config{N: 15, K: 8, Shape: trapezoid.Shape{A: 2, B: 3, H: 1}, W: 3, BlockSize: 64, Placement: strat}

	if _, err := New(clientsOf(cluster), base); err == nil {
		t.Error("placement narrower than n accepted")
	}
	cfg := base
	cfg.Placement = nil
	if _, err := New(clientsOf(cluster), cfg); err == nil {
		t.Error("nil placement accepted")
	}
	cfg = base
	cfg.BlockSize = 0
	if _, err := New(clientsOf(cluster), cfg); err == nil {
		t.Error("zero block size accepted")
	}
	bigStrat, _ := placement.NewRoundRobin(40)
	cfg = base
	cfg.Placement = bigStrat
	if _, err := New(clientsOf(cluster), cfg); err == nil {
		t.Error("placement wider than cluster accepted")
	}
	cfg = base
	strat9, _ := placement.NewRoundRobin(10)
	cfg.Placement = strat9
	cfg.N = 9
	cfg.K = 8 // trapezoid (2,3,1) holds 8, needs n-k+1 = 2
	if _, err := New(clientsOf(cluster), cfg); err == nil {
		t.Error("mismatched trapezoid accepted")
	}
}

func TestPutGetSingleStripe(t *testing.T) {
	store, _ := newTestStore(t)
	payload := []byte("small object, fits one stripe")
	if err := store.Put(context.Background(), "obj", payload); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get(context.Background(), "obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("round trip mismatch")
	}
	size, err := store.Size("obj")
	if err != nil || size != len(payload) {
		t.Fatalf("size = %d, %v", size, err)
	}
	stripes, _ := store.StripesOf("obj")
	if len(stripes) != 1 {
		t.Fatalf("stripes = %v", stripes)
	}
}

func TestPutGetMultiStripe(t *testing.T) {
	store, _ := newTestStore(t)
	// Stripe capacity is k * blocksize = 512; use ~5 stripes.
	payload := make([]byte, 512*4+100)
	rand.New(rand.NewSource(1)).Read(payload)
	if err := store.Put(context.Background(), "big", payload); err != nil {
		t.Fatal(err)
	}
	stripes, _ := store.StripesOf("big")
	if len(stripes) != 5 {
		t.Fatalf("stripes = %d, want 5", len(stripes))
	}
	got, err := store.Get(context.Background(), "big")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("multi-stripe round trip mismatch")
	}
}

func TestPutEmptyObject(t *testing.T) {
	store, _ := newTestStore(t)
	if err := store.Put(context.Background(), "empty", nil); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get(context.Background(), "empty")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestPutDuplicateKeyRejected(t *testing.T) {
	store, _ := newTestStore(t)
	if err := store.Put(context.Background(), "k", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(context.Background(), "k", []byte("b")); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestGetUnknownKey(t *testing.T) {
	store, _ := newTestStore(t)
	if _, err := store.Get(context.Background(), "nope"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("err = %v", err)
	}
	if _, err := store.Size("nope"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("err = %v", err)
	}
}

func TestKeysSorted(t *testing.T) {
	store, _ := newTestStore(t)
	for _, k := range []string{"zeta", "alpha", "mid"} {
		if err := store.Put(context.Background(), k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	keys := store.Keys()
	if len(keys) != 3 || keys[0] != "alpha" || keys[2] != "zeta" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestReadAt(t *testing.T) {
	store, _ := newTestStore(t)
	payload := make([]byte, 1500)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := store.Put(context.Background(), "obj", payload); err != nil {
		t.Fatal(err)
	}
	cases := [][2]int{{0, 10}, {60, 10}, {64, 64}, {500, 600}, {1400, 100}, {0, 1500}, {700, 0}}
	for _, c := range cases {
		got, err := store.ReadAt(context.Background(), "obj", c[0], c[1])
		if err != nil {
			t.Fatalf("ReadAt(%d,%d): %v", c[0], c[1], err)
		}
		if !bytes.Equal(got, payload[c[0]:c[0]+c[1]]) {
			t.Fatalf("ReadAt(%d,%d) wrong content", c[0], c[1])
		}
	}
	if _, err := store.ReadAt(context.Background(), "obj", 1499, 2); !errors.Is(err, ErrBadRange) {
		t.Fatalf("err = %v", err)
	}
	if _, err := store.ReadAt(context.Background(), "obj", -1, 2); !errors.Is(err, ErrBadRange) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteAtInPlace(t *testing.T) {
	store, _ := newTestStore(t)
	payload := make([]byte, 1500)
	rand.New(rand.NewSource(2)).Read(payload)
	if err := store.Put(context.Background(), "disk", payload); err != nil {
		t.Fatal(err)
	}
	// Patch across a block boundary and across a stripe boundary
	// (stripe capacity 512).
	patches := []struct {
		off  int
		data []byte
	}{
		{10, []byte("hello")},
		{60, bytes.Repeat([]byte{0xAA}, 10)},   // crosses block 0->1
		{500, bytes.Repeat([]byte{0xBB}, 40)},  // crosses stripe 1->2
		{1436, bytes.Repeat([]byte{0xCC}, 64)}, // tail block
	}
	for _, p := range patches {
		if err := store.WriteAt(context.Background(), "disk", p.off, p.data); err != nil {
			t.Fatalf("WriteAt(%d): %v", p.off, err)
		}
		copy(payload[p.off:], p.data)
	}
	got, err := store.Get(context.Background(), "disk")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("WriteAt result mismatch")
	}
	// Out-of-range writes rejected.
	if err := store.WriteAt(context.Background(), "disk", 1499, []byte{1, 2}); !errors.Is(err, ErrBadRange) {
		t.Fatalf("err = %v", err)
	}
}

func TestDegradedOperations(t *testing.T) {
	store, cluster := newTestStore(t)
	payload := make([]byte, 2000)
	rand.New(rand.NewSource(3)).Read(payload)
	if err := store.Put(context.Background(), "obj", payload); err != nil {
		t.Fatal(err)
	}
	// Crash a handful of the 30 nodes: each stripe loses at most a
	// few of its 15 shards, well inside tolerance.
	for _, n := range []int{1, 7, 19, 25} {
		cluster.Crash(n)
	}
	got, err := store.Get(context.Background(), "obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("degraded read mismatch")
	}
	// In-place update still works degraded.
	patch := bytes.Repeat([]byte{0xEE}, 100)
	if err := store.WriteAt(context.Background(), "obj", 300, patch); err != nil {
		t.Fatal(err)
	}
	copy(payload[300:], patch)
	got, err = store.Get(context.Background(), "obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("degraded write mismatch")
	}
}

func TestRepairClusterNode(t *testing.T) {
	store, cluster := newTestStore(t)
	payload := make([]byte, 3000)
	rand.New(rand.NewSource(4)).Read(payload)
	if err := store.Put(context.Background(), "obj", payload); err != nil {
		t.Fatal(err)
	}
	// Count chunks on node 5, then lose its disk.
	victim := 5
	cluster.Crash(victim)
	cluster.Restart(victim)
	if err := cluster.Node(victim).Wipe(context.Background()); err != nil {
		t.Fatal(err)
	}
	repaired, err := store.Fleet().RepairClusterNode(context.Background(), victim)
	if err != nil {
		t.Fatal(err)
	}
	stripes, _ := store.StripesOf("obj")
	onNode := 0
	for _, st := range stripes {
		store.fleet.mu.Lock()
		for _, n := range store.fleet.cat.stripes[st].Nodes {
			if n == victim {
				onNode++
			}
		}
		store.fleet.mu.Unlock()
	}
	if repaired != onNode {
		t.Fatalf("repaired %d, expected %d chunks on node %d", repaired, onNode, victim)
	}
	got, err := store.Get(context.Background(), "obj")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("post-repair read mismatch")
	}
}

func TestDeleteRemovesChunks(t *testing.T) {
	store, cluster := newTestStore(t)
	if err := store.Put(context.Background(), "obj", bytes.Repeat([]byte{1}, 600)); err != nil {
		t.Fatal(err)
	}
	stripes, _ := store.StripesOf("obj")
	store.fleet.mu.Lock()
	locs := make(map[uint64][]int)
	for _, st := range stripes {
		locs[st] = append([]int(nil), store.fleet.cat.stripes[st].Nodes...)
	}
	store.fleet.mu.Unlock()
	if err := store.Delete(context.Background(), "obj"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get(context.Background(), "obj"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("err = %v", err)
	}
	for st, nodes := range locs {
		for shard, node := range nodes {
			if ok, _ := cluster.Node(node).HasChunk(context.Background(), sim.ChunkID{Stripe: st, Shard: shard}); ok {
				t.Fatalf("chunk %d/%d survived delete on node %d", st, shard, node)
			}
		}
	}
	if err := store.Delete(context.Background(), "obj"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("double delete err = %v", err)
	}
	// Key is reusable after delete.
	if err := store.Put(context.Background(), "obj", []byte("new")); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkServiceWriteAt(b *testing.B) {
	cluster, _ := sim.NewCluster(testClusterSize)
	defer cluster.Close()
	strat, _ := placement.NewRing(testClusterSize, 16)
	store, err := New(clientsOf(cluster), Config{
		N: 15, K: 8,
		Shape: trapezoid.Shape{A: 2, B: 3, H: 1}, W: 3,
		BlockSize: 4096,
		Placement: strat,
	})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 4096*8)
	if err := store.Put(context.Background(), "disk", payload); err != nil {
		b.Fatal(err)
	}
	patch := bytes.Repeat([]byte{0xAB}, 512)
	b.SetBytes(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.WriteAt(context.Background(), "disk", (i%8)*4096, patch); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPutFailureLeavesNoOrphanChunks forces a multi-stripe Put to
// fail mid-seed (a node goes down) and checks that the chunks of the
// stripes seeded before the failure were cleaned up — a failed Put
// must leave nothing behind on any node.
func TestPutFailureLeavesNoOrphanChunks(t *testing.T) {
	ctx := context.Background()
	store, cluster := newTestStore(t)
	payload := make([]byte, 5*8*testBlockSize) // five stripes
	rand.New(rand.NewSource(11)).Read(payload)

	cluster.Crash(0) // every placement touches some nodes; ring spreads wide
	err := store.Put(ctx, "doomed", payload)
	if err == nil {
		// The ring may have avoided node 0 entirely for all five
		// stripes; crash everything to force the failure instead.
		_ = store.Delete(ctx, "doomed")
		for j := 0; j < cluster.Size(); j++ {
			cluster.Crash(j)
		}
		if err = store.Put(ctx, "doomed", payload); err == nil {
			t.Fatal("put with the whole cluster down succeeded")
		}
	}
	cluster.RestartAll()

	if _, err := store.Get(ctx, "doomed"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("failed put registered the key: %v", err)
	}
	orphans := 0
	for j := 0; j < cluster.Size(); j++ {
		n := cluster.Node(j)
		for stripe := uint64(1); stripe <= 10; stripe++ {
			for shard := 0; shard < 15; shard++ {
				if ok, _ := n.HasChunk(ctx, sim.ChunkID{Stripe: stripe, Shard: shard}); ok {
					orphans++
				}
			}
		}
	}
	if orphans != 0 {
		t.Fatalf("failed put left %d orphan chunks", orphans)
	}
}

// TestConcurrentPutSameKey races two Puts of one key: exactly one may
// win; the loser must see ErrExists and leave no trace.
func TestConcurrentPutSameKey(t *testing.T) {
	ctx := context.Background()
	store, _ := newTestStore(t)
	payload := make([]byte, 2*8*testBlockSize)
	rand.New(rand.NewSource(21)).Read(payload)
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() { errs <- store.Put(ctx, "contested", payload) }()
	}
	var wins, exists int
	for g := 0; g < 2; g++ {
		switch err := <-errs; {
		case err == nil:
			wins++
		case errors.Is(err, ErrExists):
			exists++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if wins != 1 || exists != 1 {
		t.Fatalf("wins=%d exists=%d", wins, exists)
	}
	if got, err := store.Get(ctx, "contested"); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("winner's object unreadable (%v)", err)
	}
}

// TestDeleteWithDeadContext verifies a cancelled context gates Delete
// before anything is unregistered: the key must survive untouched.
func TestDeleteWithDeadContext(t *testing.T) {
	ctx := context.Background()
	store, _ := newTestStore(t)
	if err := store.Put(ctx, "keep", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if err := store.Delete(dead, "keep"); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if got, err := store.Get(ctx, "keep"); err != nil || string(got) != "payload" {
		t.Fatalf("aborted delete damaged the object (%v)", err)
	}
}
