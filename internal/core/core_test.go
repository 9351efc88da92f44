package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"trapquorum/internal/erasure"
	"trapquorum/internal/sim"
	"trapquorum/internal/trapezoid"
)

// testSystem bundles a System with its backing simulated cluster and
// the block size of every stripe seeded through it.
type testSystem struct {
	sys     *System
	cluster *sim.Cluster
	code    *erasure.Code
	sizes   map[uint64]int
}

// identityStripe is the handle of stripe id placed shard j on node j.
func identityStripe(id uint64, n, blockSize int) Stripe {
	nodes := make([]int, n)
	for j := range nodes {
		nodes[j] = j
	}
	return Stripe{ID: id, Nodes: nodes, BlockSize: blockSize}
}

// stripe returns the handle of a seeded stripe, or for an id never
// seeded a handle that places nothing.
func (ts *testSystem) stripe(id uint64) Stripe {
	size, ok := ts.sizes[id]
	if !ok {
		return Stripe{ID: id}
	}
	return identityStripe(id, ts.code.N(), size)
}

// repairNode runs the node-wide repair sweep over every seeded stripe.
func (ts *testSystem) repairNode(ctx context.Context, node int) (int, error) {
	var stripes []Stripe
	for id := range ts.sizes {
		stripes = append(stripes, ts.stripe(id))
	}
	return RepairSweep(ctx, ts.sys.bulkLimit(), node, stripes, func(int) *System { return ts.sys })
}

// newTestSystem builds the paper's Figure-3 configuration by default:
// (n,k) = (15,8) with trapezoid a=2 b=3 h=1 (8 positions) and w=3.
func newTestSystem(t testing.TB, n, k int, shape trapezoid.Shape, w int, opts Options) *testSystem {
	t.Helper()
	code, err := erasure.New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := trapezoid.NewConfig(shape, w)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := sim.NewCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	nodes := make([]NodeClient, n)
	for j := 0; j < n; j++ {
		nodes[j] = cluster.Node(j)
	}
	sys, err := NewSystem(code, cfg, nodes, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &testSystem{sys: sys, cluster: cluster, code: code, sizes: make(map[uint64]int)}
}

func fig3System(t testing.TB, opts Options) *testSystem {
	return newTestSystem(t, 15, 8, trapezoid.Shape{A: 2, B: 3, H: 1}, 3, opts)
}

// seed installs a deterministic stripe and returns its data blocks.
func (ts *testSystem) seed(t testing.TB, stripe uint64, size int) [][]byte {
	t.Helper()
	r := rand.New(rand.NewSource(int64(stripe) + 1))
	data := make([][]byte, ts.code.K())
	for i := range data {
		data[i] = make([]byte, size)
		r.Read(data[i])
	}
	ts.sizes[stripe] = size
	if err := ts.sys.SeedStripe(context.Background(), ts.stripe(stripe), data); err != nil {
		t.Fatal(err)
	}
	return data
}

// shardNode returns the cluster node holding stripe shard j.
func (ts *testSystem) shardNode(j int) *sim.Node { return ts.cluster.Node(j) }

// parityShard returns the stripe index of the p-th parity shard.
func (ts *testSystem) parityShard(p int) int { return ts.code.K() + p }

func TestNewSystemValidation(t *testing.T) {
	code, _ := erasure.New(15, 8)
	cfg, _ := trapezoid.NewConfig(trapezoid.Shape{A: 2, B: 3, H: 1}, 3)
	cluster, _ := sim.NewCluster(15)
	defer cluster.Close()
	nodes := make([]NodeClient, 15)
	for j := range nodes {
		nodes[j] = cluster.Node(j)
	}
	if _, err := NewSystem(nil, cfg, nodes, Options{}); err == nil {
		t.Error("nil code accepted")
	}
	if _, err := NewSystem(code, cfg, nodes[:14], Options{}); err == nil {
		t.Error("wrong node count accepted")
	}
	badCfg, _ := trapezoid.NewConfig(trapezoid.Shape{A: 2, B: 3, H: 2}, 3) // 15 positions != 8
	if _, err := NewSystem(code, badCfg, nodes, Options{}); err == nil {
		t.Error("mismatched trapezoid accepted")
	}
	nilNodes := append([]NodeClient(nil), nodes...)
	nilNodes[3] = nil
	if _, err := NewSystem(code, cfg, nilNodes, Options{}); err == nil {
		t.Error("nil node accepted")
	}
	if _, err := NewSystem(code, cfg, nodes, Options{}); err != nil {
		t.Errorf("valid system rejected: %v", err)
	}
}

func TestSeedAndReadAllBlocks(t *testing.T) {
	ts := fig3System(t, Options{})
	data := ts.seed(t, 1, 64)
	for i := 0; i < ts.code.K(); i++ {
		got, version, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), i)
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		if version != 1 {
			t.Fatalf("block %d: version %d, want 1", i, version)
		}
		if !bytes.Equal(got, data[i]) {
			t.Fatalf("block %d: wrong content", i)
		}
	}
	m := ts.sys.Metrics()
	if m.DirectReads != int64(ts.code.K()) || m.DecodeReads != 0 {
		t.Fatalf("metrics = %+v, want all direct", m)
	}
}

func TestSeedRequiresAllNodes(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.cluster.Crash(12)
	data := make([][]byte, 8)
	for i := range data {
		data[i] = []byte{1, 2, 3}
	}
	if err := ts.sys.SeedStripe(context.Background(), identityStripe(1, 15, 3), data); !errors.Is(err, ErrSeedIncomplete) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadValidation(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 32)
	if _, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), -1); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 8); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(99), 0); !errors.Is(err, ErrUnknownStripe) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteValidation(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 32)
	if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 9, make([]byte, 32)); !errors.Is(err, ErrBadIndex) {
		t.Fatalf("err = %v", err)
	}
	if err := ts.sys.WriteBlock(context.Background(), ts.stripe(99), 0, make([]byte, 32)); !errors.Is(err, ErrUnknownStripe) {
		t.Fatalf("err = %v", err)
	}
	if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 0, make([]byte, 31)); !errors.Is(err, ErrBlockSize) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 64)
	r := rand.New(rand.NewSource(9))
	for round := 1; round <= 5; round++ {
		for i := 0; i < ts.code.K(); i++ {
			x := make([]byte, 64)
			r.Read(x)
			if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), i, x); err != nil {
				t.Fatalf("round %d block %d: %v", round, i, err)
			}
			got, version, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), i)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, x) {
				t.Fatalf("round %d block %d: wrong content", round, i)
			}
			if version != uint64(round+1) {
				t.Fatalf("round %d block %d: version %d", round, i, version)
			}
		}
	}
}

// TestStripeConsistencyAfterWrites checks the deepest invariant: after
// any sequence of successful quorum writes with every node up, the
// physical stripe must still satisfy the erasure code (parity blocks
// are exactly the coded combination of the data blocks).
func TestStripeConsistencyAfterWrites(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 48)
	r := rand.New(rand.NewSource(10))
	for op := 0; op < 40; op++ {
		i := r.Intn(ts.code.K())
		x := make([]byte, 48)
		r.Read(x)
		if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), i, x); err != nil {
			t.Fatal(err)
		}
	}
	shards := make([][]byte, ts.code.N())
	for j := range shards {
		chunk, err := ts.shardNode(j).ReadChunk(context.Background(), sim.ChunkID{Stripe: 1, Shard: j})
		if err != nil {
			t.Fatal(err)
		}
		shards[j] = chunk.Data
	}
	ok, err := ts.code.Verify(shards)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("stripe violates the erasure code after writes")
	}
}

func TestReadDecodesWhenDataNodeDown(t *testing.T) {
	ts := fig3System(t, Options{})
	data := ts.seed(t, 1, 64)
	ts.cluster.Crash(3) // data node of block 3
	got, version, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[3]) {
		t.Fatal("decoded content wrong")
	}
	if version != 1 {
		t.Fatalf("version = %d", version)
	}
	if m := ts.sys.Metrics(); m.DecodeReads != 1 {
		t.Fatalf("metrics = %+v, want one decode read", m)
	}
}

func TestWriteSucceedsWithDataNodeDown(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 64)
	ts.cluster.Crash(5) // data node of block 5
	x := bytes.Repeat([]byte{0xaa}, 64)
	// Level 0 = {N_5, parity 8, parity 9}: w_0 = 2 reachable via the
	// two parity nodes even with N_5 down.
	if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 5, x); err != nil {
		t.Fatalf("write with data node down failed: %v", err)
	}
	// Read must take the decode path and still see the new value.
	got, version, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, x) {
		t.Fatal("decode after degraded write returned stale data")
	}
	if version != 2 {
		t.Fatalf("version = %d, want 2", version)
	}
	// After the node comes back it is stale; reads still prefer the
	// quorum's version and decode.
	ts.cluster.Restart(5)
	got, _, err = ts.sys.ReadBlock(context.Background(), ts.stripe(1), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, x) {
		t.Fatal("stale revived node leaked old data")
	}
}

func TestWriteFailsWhenLevelStarved(t *testing.T) {
	ts := fig3System(t, Options{})
	data := ts.seed(t, 1, 64)
	// Level 1 holds parity shards 10..14 with w_1 = 3; crash three.
	ts.cluster.Crash(12)
	ts.cluster.Crash(13)
	ts.cluster.Crash(14)
	x := bytes.Repeat([]byte{0x55}, 64)
	if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 2, x); !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("err = %v, want ErrWriteFailed", err)
	}
	// Rollback must have restored the stripe: every reachable node
	// reports version 1 and reads return the original value.
	got, version, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 || !bytes.Equal(got, data[2]) {
		t.Fatalf("rollback incomplete: version %d", version)
	}
	// Writes work again once the level recovers.
	ts.cluster.Restart(12)
	ts.cluster.Restart(13)
	ts.cluster.Restart(14)
	if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 2, x); err != nil {
		t.Fatal(err)
	}
	got, version, _ = ts.sys.ReadBlock(context.Background(), ts.stripe(1), 2)
	if version != 2 || !bytes.Equal(got, x) {
		t.Fatal("post-recovery write not visible")
	}
}

func TestWriteFailsWhenInitialReadImpossible(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 64)
	// Crash enough of every level to break all version checks:
	// level 0 needs r_0 = 2 of {N_i, 8, 9}; level 1 needs r_1 = 3 of
	// {10..14}. Crash data node, 8, 9 and 10, 11, 12.
	for _, j := range []int{2, 8, 9, 10, 11, 12} {
		ts.cluster.Crash(j)
	}
	err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 2, make([]byte, 64))
	if !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("err = %v", err)
	}
	if m := ts.sys.Metrics(); m.FailedWrites != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestReadFallsThroughToLevel1(t *testing.T) {
	ts := fig3System(t, Options{})
	data := ts.seed(t, 1, 64)
	// Starve level 0's check: r_0 = 2 of {N_1, 8, 9}; crash 8 and 9 so
	// only N_1 answers there.
	ts.cluster.Crash(8)
	ts.cluster.Crash(9)
	got, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[1]) {
		t.Fatal("wrong content via level-1 check")
	}
}

func TestReadFailsWhenAllChecksStarved(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 64)
	for _, j := range []int{1, 8, 9, 10, 11, 12} {
		ts.cluster.Crash(j)
	}
	if _, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 1); !errors.Is(err, ErrNotReadable) {
		t.Fatalf("err = %v", err)
	}
	if m := ts.sys.Metrics(); m.FailedReads != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestReadFailsWhenDecodeImpossible(t *testing.T) {
	// Data node down and too few up-to-date shards to decode: version
	// check can pass while decode cannot gather k shards.
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 64)
	// Crash all data nodes except one plus one parity node: the six
	// remaining parity shards plus one data shard are fewer than k=8,
	// while the level-0 version check (parity shards 8 and 9) passes.
	for _, j := range []int{0, 1, 2, 3, 4, 5, 6, 14} {
		ts.cluster.Crash(j)
	}
	_, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 0)
	if !errors.Is(err, ErrNotReadable) {
		t.Fatalf("err = %v", err)
	}
}
