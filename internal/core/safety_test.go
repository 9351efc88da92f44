package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"trapquorum/internal/sim"
	"trapquorum/internal/trapezoid"
)

// TestLinearizabilityUnderCrashSchedules is the protocol's safety
// property test: under an arbitrary fail-stop schedule (crashes and
// restarts between operations), every successful read returns the
// value of the most recent successful write. Failed writes are rolled
// back, so they must never become visible.
func TestLinearizabilityUnderCrashSchedules(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			runCrashSchedule(t, fig3System(t, Options{}), seed, 250)
		})
	}
}

// runCrashSchedule drives ops random crashes, restarts, writes and
// reads against stripe 1 of ts and fails on any stale or garbage read.
func runCrashSchedule(t *testing.T, ts *testSystem, seed int64, ops int) {
	t.Helper()
	const blockSize = 32
	data := ts.seed(t, 1, blockSize)
	r := rand.New(rand.NewSource(seed))
	// expected[i] is the value of the last successful write of block i.
	expected := make([][]byte, ts.code.K())
	for i := range expected {
		expected[i] = append([]byte(nil), data[i]...)
	}
	for op := 0; op < ops; op++ {
		switch r.Intn(10) {
		case 0, 1: // crash a random node (cap total down at n-1)
			if ts.cluster.AliveCount() > 1 {
				ts.cluster.Crash(r.Intn(ts.code.N()))
			}
		case 2: // restart a random node
			ts.cluster.Restart(r.Intn(ts.code.N()))
		case 3, 4, 5: // write a random block
			i := r.Intn(ts.code.K())
			x := make([]byte, blockSize)
			r.Read(x)
			if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), i, x); err == nil {
				expected[i] = x
			} else if !errors.Is(err, ErrWriteFailed) {
				t.Fatalf("op %d: unexpected write error %v", op, err)
			}
		default: // read a random block
			i := r.Intn(ts.code.K())
			got, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), i)
			if err != nil {
				if !errors.Is(err, ErrNotReadable) {
					t.Fatalf("op %d: unexpected read error %v", op, err)
				}
				continue
			}
			if !bytes.Equal(got, expected[i]) {
				t.Fatalf("seed %d op %d: block %d read stale/garbage value", seed, op, i)
			}
		}
	}
}

// TestFailedWriteResidueHazard reproduces, with rollback disabled, the
// anomaly latent in the paper's Algorithm 1: a write that fails at a
// higher level leaves level-0 updates behind, so (a) the failed
// write's value becomes visible to reads, and (b) parity nodes that
// missed the bump reject all future updates, making subsequent writes
// fail — a permanent availability loss until repair.
func TestFailedWriteResidueHazard(t *testing.T) {
	ts := fig3System(t, Options{DisableRollback: true})
	data := ts.seed(t, 1, 32)

	// Starve level 1 (parity shards 10..14, w_1 = 3): crash three.
	ts.cluster.Crash(12)
	ts.cluster.Crash(13)
	ts.cluster.Crash(14)
	x1 := bytes.Repeat([]byte{0x11}, 32)
	if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 2, x1); !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("err = %v, want ErrWriteFailed", err)
	}

	// Anomaly (a): the failed write is visible — level 0 was updated
	// before the failure and now carries version 2.
	got, version, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 || !bytes.Equal(got, x1) {
		t.Fatalf("expected the residue anomaly: failed write visible at v2; got v%d", version)
	}

	// Anomaly (b): with the cluster fully healed, writes still fail —
	// level-1 parities are stuck at version 1 and reject deltas based
	// on version 2.
	ts.cluster.Restart(12)
	ts.cluster.Restart(13)
	ts.cluster.Restart(14)
	x2 := bytes.Repeat([]byte{0x22}, 32)
	if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 2, x2); !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("err = %v, want persistent write failure from residue", err)
	}

	// Repairing the stale level-1 parity shards restores writability.
	for _, shard := range []int{10, 11, 12, 13, 14} {
		if err := ts.sys.RepairShard(context.Background(), ts.stripe(1), shard); err != nil {
			t.Fatalf("repair shard %d: %v", shard, err)
		}
	}
	if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 2, x2); err != nil {
		t.Fatalf("write after repair: %v", err)
	}
	got, version, err = ts.sys.ReadBlock(context.Background(), ts.stripe(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, x2) {
		t.Fatal("post-repair write not visible")
	}
	// Version 4: the seed was v1, and *both* failed writes bumped
	// level 0 (v2, then v3) before dying at level 1 — residue again.
	// The successful post-repair write lands at v4.
	if version != 4 {
		t.Fatalf("version = %d, want 4", version)
	}
	// Unrelated blocks were never corrupted.
	for i := 0; i < ts.code.K(); i++ {
		if i == 2 {
			continue
		}
		got, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data[i]) {
			t.Fatalf("block %d collateral damage", i)
		}
	}
}

// TestRollbackPreventsResidue runs the same schedule as the hazard
// test with rollback enabled (the default) and verifies the anomalies
// do not occur.
func TestRollbackPreventsResidue(t *testing.T) {
	ts := fig3System(t, Options{})
	data := ts.seed(t, 1, 32)
	ts.cluster.Crash(12)
	ts.cluster.Crash(13)
	ts.cluster.Crash(14)
	x1 := bytes.Repeat([]byte{0x11}, 32)
	if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 2, x1); !errors.Is(err, ErrWriteFailed) {
		t.Fatalf("err = %v", err)
	}
	got, version, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if version != 1 || !bytes.Equal(got, data[2]) {
		t.Fatalf("failed write leaked despite rollback (v%d)", version)
	}
	ts.cluster.Restart(12)
	ts.cluster.Restart(13)
	ts.cluster.Restart(14)
	if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 2, x1); err != nil {
		t.Fatalf("write after rollback: %v", err)
	}
	if m := ts.sys.Metrics(); m.Rollbacks != 1 {
		t.Fatalf("metrics = %+v, want one rollback", m)
	}
}

// TestConcurrentWritersDistinctBlocks exercises the Galois-field
// commutativity claim end to end: concurrent writers on different
// blocks of the same stripe interleave their parity deltas in
// arbitrary per-node order, yet the stripe must remain code-consistent
// and every block readable at its writer's last value.
func TestConcurrentWritersDistinctBlocks(t *testing.T) {
	ts := fig3System(t, Options{})
	const blockSize = 64
	ts.seed(t, 1, blockSize)
	var wg sync.WaitGroup
	finals := make([][]byte, ts.code.K())
	for i := 0; i < ts.code.K(); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + i)))
			var last []byte
			for round := 0; round < 20; round++ {
				x := make([]byte, blockSize)
				r.Read(x)
				if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), i, x); err != nil {
					panic(err) // all nodes up: writes must succeed
				}
				last = x
			}
			finals[i] = last
		}(i)
	}
	wg.Wait()
	// Every block reads back its final value.
	for i := 0; i < ts.code.K(); i++ {
		got, version, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, finals[i]) {
			t.Fatalf("block %d: lost update under concurrency", i)
		}
		if version != 21 {
			t.Fatalf("block %d: version %d, want 21", i, version)
		}
	}
	// The physical stripe still satisfies the code.
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
		t.Fatal("stripe violates the erasure code after concurrent writers")
	}
}

// TestConcurrentReadersDuringWrites checks reads stay well-formed
// (either the old or the new value, never garbage) while a writer is
// in flight.
func TestConcurrentReadersDuringWrites(t *testing.T) {
	ts := fig3System(t, Options{})
	const blockSize = 64
	ts.seed(t, 1, blockSize)
	values := make(map[string]bool)
	var mu sync.Mutex
	record := func(b []byte) {
		mu.Lock()
		values[string(b)] = true
		mu.Unlock()
	}
	written := [][]byte{}
	r := rand.New(rand.NewSource(77))
	for round := 0; round < 10; round++ {
		x := make([]byte, blockSize)
		r.Read(x)
		written = append(written, x)
	}
	done := make(chan struct{})
	var readErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			got, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 4)
			if err != nil {
				readErr = err
				return
			}
			record(got)
		}
	}()
	for _, x := range written {
		if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 4, x); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	if readErr != nil {
		t.Fatalf("reader failed: %v", readErr)
	}
	// Every observed value must be the seed value or one of the
	// written values — nothing else.
	valid := map[string]bool{}
	orig := ts.seedValue(t, 4, blockSize)
	valid[string(orig)] = true
	for _, x := range written {
		valid[string(x)] = true
	}
	for v := range values {
		if !valid[v] {
			t.Fatal("reader observed a value that was never written (torn read)")
		}
	}
}

// seedValue regenerates the deterministic seed content of a block
// (same generator as testSystem.seed with stripe 1).
func (ts *testSystem) seedValue(t *testing.T, block, size int) []byte {
	t.Helper()
	r := rand.New(rand.NewSource(2))
	data := make([][]byte, ts.code.K())
	for i := range data {
		data[i] = make([]byte, size)
		r.Read(data[i])
	}
	return data[block]
}

// TestSmallCodeConfigurations drives the protocol on other shapes to
// guard against Figure-3-specific assumptions: a flat trapezoid
// (h=0), a three-level one, and the degenerate single-parity code.
func TestSmallCodeConfigurations(t *testing.T) {
	cases := []struct {
		n, k  int
		shape trapezoid.Shape
		w     int
	}{
		{9, 6, trapezoid.Shape{A: 0, B: 4, H: 0}, 1},  // flat: plain majority over 4
		{9, 6, trapezoid.Shape{A: 2, B: 1, H: 1}, 1},  // 1+3 = 4 = n-k+1
		{12, 4, trapezoid.Shape{A: 2, B: 1, H: 2}, 2}, // 1+3+5 = 9 = n-k+1
		{6, 5, trapezoid.Shape{A: 0, B: 2, H: 0}, 1},  // two positions
	}
	for _, c := range cases {
		if got, want := c.shape.NbNodes(), c.n-c.k+1; got != want {
			t.Fatalf("fixture bug: shape %v holds %d, need %d", c.shape, got, want)
		}
		ts := newTestSystem(t, c.n, c.k, c.shape, c.w, Options{})
		data := ts.seed(t, 1, 16)
		for i := 0; i < c.k; i++ {
			got, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), i)
			if err != nil {
				t.Fatalf("(%d,%d) %v: read %d: %v", c.n, c.k, c.shape, i, err)
			}
			if !bytes.Equal(got, data[i]) {
				t.Fatalf("(%d,%d) %v: block %d wrong", c.n, c.k, c.shape, i)
			}
		}
		x := bytes.Repeat([]byte{9}, 16)
		if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 0, x); err != nil {
			t.Fatalf("(%d,%d) %v: write: %v", c.n, c.k, c.shape, err)
		}
		got, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 0)
		if err != nil || !bytes.Equal(got, x) {
			t.Fatalf("(%d,%d) %v: write not visible: %v", c.n, c.k, c.shape, err)
		}
	}
}
