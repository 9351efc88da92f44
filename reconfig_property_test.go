package trapquorum_test

// Differential property suite for online reconfiguration: randomized
// reconfiguration schedules (grow, recode, no-op revisits) interleaved
// with a concurrent foreground workload, checked round by round
// against an in-memory oracle. The property: every write the store
// acked — before, during or after any migration — reads back exactly,
// in every epoch the schedule passes through. Seeds are pinned
// in-source so a failure replays deterministically; the suite runs
// under -race in CI.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"trapquorum"
)

// propGeom is one reconfiguration target of the randomized schedule.
// Every entry satisfies Shape.NbNodes == n-k+1, so any pair of rounds
// is a legal recode.
type propGeom struct{ n, k, a, b, h, w int }

var propGeoms = []propGeom{
	{n: 9, k: 6, a: 2, b: 1, h: 1, w: 2},  // the suite's seed geometry
	{n: 11, k: 8, a: 2, b: 1, h: 1, w: 2}, // same shape, wider code
	{n: 12, k: 8, a: 1, b: 2, h: 1, w: 2}, // n-k+1 = 5 over two levels
	{n: 15, k: 8, a: 2, b: 3, h: 1, w: 3}, // the paper's Figure 3
}

func TestReconfigDifferentialProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runReconfigSchedule(t, seed)
		})
	}
}

// runReconfigSchedule drives one randomized schedule: four rounds,
// each picking a target geometry from the pool (growing the cluster
// when the target needs more nodes than exist) and reconfiguring while
// a full foreground workload — puts, in-place patches, deletes,
// verified reads — runs against the store. After every round the whole
// oracle is read back and the epoch arithmetic is checked: a round
// whose target differs from the live configuration advances the epoch
// by exactly one; a no-op round leaves it alone.
func runReconfigSchedule(t *testing.T, seed int64) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	cur := propGeoms[0]
	store, err := trapquorum.Open(ctx,
		trapquorum.WithCode(cur.n, cur.k),
		trapquorum.WithTrapezoid(cur.a, cur.b, cur.h, cur.w),
		trapquorum.WithBlockSize(64))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	oracle := preloadObjects(t, store, fmt.Sprintf("prop%d", seed), 12, seed)
	epoch := uint64(1)
	nodes := cur.n

	for round := 0; round < 4; round++ {
		g := propGeoms[rng.Intn(len(propGeoms))]
		grow := 0
		if g.n > nodes {
			grow = g.n - nodes
		}
		// The target differs when the geometry changes or the roster
		// grows; otherwise the round must be a converged no-op.
		if g != cur || grow > 0 {
			epoch++
		}

		fg := startForeground(store, fmt.Sprintf("prop%d-r%d", seed, round), rng.Int63(),
			oracle, fgReads|fgWrites|fgPuts|fgDeletes)
		rerr := store.Reconfigure(ctx, trapquorum.Reconfig{
			N: g.n, K: g.k, TrapezoidA: g.a, TrapezoidB: g.b, TrapezoidH: g.h, W: g.w,
			AddNodes: grow,
		})
		oracle = fg.finish(t)
		if rerr != nil {
			t.Fatalf("round %d: reconfigure to (%d,%d) grow %d: %v", round, g.n, g.k, grow, rerr)
		}
		nodes += grow
		cur = g

		// Every acked write is readable in the epoch this round landed
		// on, and the fleet converged exactly there.
		verifyAll(t, store, oracle)
		requireConverged(t, store, epoch)
		if n, k := store.CodeParams(); n != g.n || k != g.k {
			t.Fatalf("round %d: CodeParams = (%d,%d), want (%d,%d)", round, n, k, g.n, g.k)
		}
		if got := store.NodeCount(); got != nodes {
			t.Fatalf("round %d: NodeCount = %d, want %d", round, got, nodes)
		}
	}
	if len(oracle) == 0 {
		t.Fatal("schedule deleted every object; the property checked nothing")
	}
}

// TestReconfigResizesTailStripes recodes (9,6) to (12,8) under a full
// foreground workload, over objects whose last stripe is right-sized:
// the recode re-cuts every object, so the last stripe's block size
// changes with k while readers and writers run, and every acked byte
// must read back.
func TestReconfigResizesTailStripes(t *testing.T) {
	ctx := context.Background()
	const blockSize = 1024
	store, err := trapquorum.Open(ctx,
		trapquorum.WithCode(9, 6),
		trapquorum.WithTrapezoid(2, 1, 1, 2),
		trapquorum.WithBlockSize(blockSize))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// tailBlock is the block size of an object's last stripe under k.
	tailBlock := func(size, k int) int {
		r := size - (max(1, (size+k*blockSize-1)/(k*blockSize))-1)*k*blockSize
		return min(blockSize, (max(1, (r+k-1)/k)+63)/64*64)
	}
	oracle := make(map[string][]byte)
	resized := 0
	for i, size := range []int{1, 100, 1000, 3000, 6143, 6145, 9000, 13000} {
		key := fmt.Sprintf("tail-%d", i)
		data := make([]byte, size)
		rand.New(rand.NewSource(int64(size))).Read(data)
		if err := store.Put(ctx, key, data); err != nil {
			t.Fatal(err)
		}
		oracle[key] = data
		if tailBlock(size, 6) != tailBlock(size, 8) {
			resized++
		}
	}
	if resized < 4 {
		t.Fatalf("only %d objects change their last stripe's block size; the case checks too little", resized)
	}
	fg := startForeground(store, "tail", 5, oracle, fgReads|fgWrites|fgPuts|fgDeletes)
	rerr := store.Reconfigure(ctx, trapquorum.Reconfig{
		N: 12, K: 8, TrapezoidA: 1, TrapezoidB: 2, TrapezoidH: 1, W: 2, AddNodes: 3,
	})
	oracle = fg.finish(t)
	if rerr != nil {
		t.Fatal(rerr)
	}
	t.Logf("foreground ops during the recode: %d", fg.ops)
	verifyAll(t, store, oracle)
	requireConverged(t, store, 2)
}
