package sim

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestCluster(t testing.TB, n int, opts ...Option) *Cluster {
	t.Helper()
	c, err := NewCluster(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(0); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

func TestPutReadRoundTrip(t *testing.T) {
	c := newTestCluster(t, 3)
	id := ChunkID{Stripe: 7, Shard: 2}
	if err := c.Node(0).PutChunk(context.Background(), id, []byte{1, 2, 3}, []uint64{5}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Node(0).ReadChunk(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data) != "\x01\x02\x03" || got.Versions[0] != 5 {
		t.Fatalf("got %+v", got)
	}
}

func TestReadMissing(t *testing.T) {
	c := newTestCluster(t, 1)
	if _, err := c.Node(0).ReadChunk(context.Background(), ChunkID{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := c.Node(0).ReadVersions(context.Background(), ChunkID{}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestPutChunkCopiesInputs(t *testing.T) {
	c := newTestCluster(t, 1)
	id := ChunkID{Stripe: 1}
	data := []byte{9, 9}
	vers := []uint64{1}
	if err := c.Node(0).PutChunk(context.Background(), id, data, vers); err != nil {
		t.Fatal(err)
	}
	data[0] = 0
	vers[0] = 0
	got, _ := c.Node(0).ReadChunk(context.Background(), id)
	if got.Data[0] != 9 || got.Versions[0] != 1 {
		t.Fatal("PutChunk aliased caller memory")
	}
}

func TestReadChunkReturnsCopy(t *testing.T) {
	c := newTestCluster(t, 1)
	id := ChunkID{Stripe: 1}
	if err := c.Node(0).PutChunk(context.Background(), id, []byte{1}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	got, _ := c.Node(0).ReadChunk(context.Background(), id)
	got.Data[0] = 77
	got.Versions[0] = 99
	again, _ := c.Node(0).ReadChunk(context.Background(), id)
	if again.Data[0] != 1 || again.Versions[0] != 1 {
		t.Fatal("ReadChunk leaked internal state")
	}
}

func TestPutChunkRequiresVersions(t *testing.T) {
	c := newTestCluster(t, 1)
	if err := c.Node(0).PutChunk(context.Background(), ChunkID{}, []byte{1}, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
}

func TestCompareAndPut(t *testing.T) {
	c := newTestCluster(t, 1)
	n := c.Node(0)
	id := ChunkID{Stripe: 3}
	if err := n.PutChunk(context.Background(), id, []byte{1}, []uint64{4}); err != nil {
		t.Fatal(err)
	}
	if err := n.CompareAndPut(context.Background(), id, 0, 4, 5, []byte{2}); err != nil {
		t.Fatal(err)
	}
	got, _ := n.ReadChunk(context.Background(), id)
	if got.Data[0] != 2 || got.Versions[0] != 5 {
		t.Fatalf("after CAP: %+v", got)
	}
	// Wrong expectation: rejected, state unchanged.
	if err := n.CompareAndPut(context.Background(), id, 0, 4, 6, []byte{3}); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v", err)
	}
	got, _ = n.ReadChunk(context.Background(), id)
	if got.Data[0] != 2 || got.Versions[0] != 5 {
		t.Fatalf("mismatch mutated chunk: %+v", got)
	}
	// Missing chunk and bad slot.
	if err := n.CompareAndPut(context.Background(), ChunkID{Stripe: 99}, 0, 0, 1, []byte{1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if err := n.CompareAndPut(context.Background(), id, 3, 5, 6, []byte{1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
}

func TestCompareAndAdd(t *testing.T) {
	c := newTestCluster(t, 1)
	n := c.Node(0)
	id := ChunkID{Stripe: 3, Shard: 8}
	// Parity chunk for a k=3 stripe: three version slots.
	if err := n.PutChunk(context.Background(), id, []byte{0xf0, 0x0f}, []uint64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := n.CompareAndAdd(context.Background(), id, 1, 1, 2, []byte{0x0f, 0x0f}); err != nil {
		t.Fatal(err)
	}
	got, _ := n.ReadChunk(context.Background(), id)
	if got.Data[0] != 0xff || got.Data[1] != 0x00 {
		t.Fatalf("XOR wrong: %v", got.Data)
	}
	if got.Versions[0] != 1 || got.Versions[1] != 2 || got.Versions[2] != 1 {
		t.Fatalf("versions wrong: %v", got.Versions)
	}
	// Stale expectation rejected without mutation.
	if err := n.CompareAndAdd(context.Background(), id, 1, 1, 3, []byte{1, 1}); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v", err)
	}
	again, _ := n.ReadChunk(context.Background(), id)
	if again.Data[0] != 0xff || again.Versions[1] != 2 {
		t.Fatal("rejected add mutated chunk")
	}
	// Size mismatch.
	if err := n.CompareAndAdd(context.Background(), id, 1, 2, 3, []byte{1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
	// Missing chunk.
	if err := n.CompareAndAdd(context.Background(), ChunkID{Stripe: 42}, 0, 0, 1, []byte{1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestCrashRestartSemantics(t *testing.T) {
	c := newTestCluster(t, 2)
	n := c.Node(1)
	id := ChunkID{Stripe: 1}
	if err := n.PutChunk(context.Background(), id, []byte{1}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	n.Crash()
	if !n.Down() {
		t.Fatal("node not down after Crash")
	}
	if _, err := n.ReadChunk(context.Background(), id); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v", err)
	}
	if err := n.PutChunk(context.Background(), id, []byte{2}, []uint64{2}); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v", err)
	}
	n.Restart()
	got, err := n.ReadChunk(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[0] != 1 || got.Versions[0] != 1 {
		t.Fatal("chunk lost across crash/restart")
	}
}

// TestCrashDuringDelayRejects: a node that fail-stops while a request
// is inside its latency window must reject it at accept time — the
// mutation must not land on a crashed node.
func TestCrashDuringDelayRejects(t *testing.T) {
	c := newTestCluster(t, 1, WithDelay(FixedDelay(100*time.Millisecond)))
	n := c.Node(0)
	id := ChunkID{Stripe: 1}
	errCh := make(chan error, 1)
	go func() {
		errCh <- n.PutChunk(context.Background(), id, []byte{1}, []uint64{1})
	}()
	time.Sleep(20 * time.Millisecond) // request is inside its delay window
	n.Crash()
	if err := <-errCh; !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	n.Restart()
	if ok, _ := n.HasChunk(context.Background(), id); ok {
		t.Fatal("mutation landed on a crashed node")
	}
}

func TestWipe(t *testing.T) {
	c := newTestCluster(t, 1)
	n := c.Node(0)
	id := ChunkID{Stripe: 1}
	if err := n.PutChunk(context.Background(), id, []byte{1}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := n.Wipe(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ok, _ := n.HasChunk(context.Background(), id); ok {
		t.Fatal("chunk survived Wipe")
	}
}

func TestHasChunk(t *testing.T) {
	c := newTestCluster(t, 1)
	n := c.Node(0)
	if ok, err := n.HasChunk(context.Background(), ChunkID{}); err != nil || ok {
		t.Fatalf("HasChunk empty = %v, %v", ok, err)
	}
	if err := n.PutChunk(context.Background(), ChunkID{}, []byte{1}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if ok, err := n.HasChunk(context.Background(), ChunkID{}); err != nil || !ok {
		t.Fatalf("HasChunk = %v, %v", ok, err)
	}
}

func TestApplyMask(t *testing.T) {
	c := newTestCluster(t, 4)
	if err := c.ApplyMask([]bool{true, false, true, false}); err != nil {
		t.Fatal(err)
	}
	if c.AliveCount() != 2 {
		t.Fatalf("alive = %d", c.AliveCount())
	}
	if !c.Node(1).Down() || c.Node(0).Down() {
		t.Fatal("mask applied to wrong nodes")
	}
	if err := c.ApplyMask([]bool{true}); err == nil {
		t.Fatal("short mask accepted")
	}
	c.RestartAll()
	if c.AliveCount() != 4 {
		t.Fatal("RestartAll incomplete")
	}
}

func TestNodePanicsOutOfRange(t *testing.T) {
	c := newTestCluster(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Node(2)
}

func TestMetricsCount(t *testing.T) {
	c := newTestCluster(t, 1)
	n := c.Node(0)
	id := ChunkID{Stripe: 1}
	_ = n.PutChunk(context.Background(), id, []byte{1}, []uint64{1})
	_, _ = n.ReadChunk(context.Background(), id)
	_, _, _ = n.ReadVersions(context.Background(), id)
	_ = n.CompareAndAdd(context.Background(), id, 0, 99, 100, []byte{1}) // version reject
	m := n.Metrics()
	if m.Writes.Load() != 1 || m.Reads.Load() != 1 || m.VersionQueries.Load() != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Adds.Load() != 1 || m.VersionRejects.Load() != 1 {
		t.Fatalf("add metrics = %+v", m)
	}
}

func TestDownRejectCounted(t *testing.T) {
	c := newTestCluster(t, 1)
	n := c.Node(0)
	n.Crash()
	_, _ = n.ReadChunk(context.Background(), ChunkID{})
	if n.Metrics().DownRejects.Load() == 0 {
		t.Fatal("down rejection not counted")
	}
}

// TestConcurrentAddsSerialise drives many concurrent conditional adds
// at the same chunk: exactly one writer may win each version slot
// transition, so the final version equals the number of successful
// adds and the data reflects exactly those deltas.
func TestConcurrentAddsSerialise(t *testing.T) {
	c := newTestCluster(t, 1)
	n := c.Node(0)
	id := ChunkID{Stripe: 1, Shard: 3}
	if err := n.PutChunk(context.Background(), id, []byte{0}, []uint64{0}); err != nil {
		t.Fatal(err)
	}
	const writers = 32
	var wg sync.WaitGroup
	var successes atomic.Int64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each writer tries to advance version 0→1 exactly once.
			if err := n.CompareAndAdd(context.Background(), id, 0, 0, 1, []byte{1}); err == nil {
				successes.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := successes.Load(); got != 1 {
		t.Fatalf("%d writers won the 0→1 transition, want exactly 1", got)
	}
	chunk, _ := n.ReadChunk(context.Background(), id)
	if chunk.Versions[0] != 1 || chunk.Data[0] != 1 {
		t.Fatalf("final chunk %+v", chunk)
	}
}

func TestConcurrentMixedOpsRace(t *testing.T) {
	// Exercised under -race: concurrent reads/writes/crashes must be
	// data-race free thanks to the actor serialisation.
	c := newTestCluster(t, 4)
	id := ChunkID{Stripe: 9}
	for i := 0; i < 4; i++ {
		if err := c.Node(i).PutChunk(context.Background(), id, []byte{0, 0, 0, 0}, []uint64{0}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			n := c.Node(g % 4)
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					_, _ = n.ReadChunk(context.Background(), id)
				case 1:
					_ = n.PutChunk(context.Background(), id, []byte{byte(i), 0, 0, 0}, []uint64{uint64(i)})
				case 2:
					_, _, _ = n.ReadVersions(context.Background(), id)
				case 3:
					if g == 0 {
						n.Crash()
						n.Restart()
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestFixedDelayApplied(t *testing.T) {
	c := newTestCluster(t, 1, WithDelay(FixedDelay(2*time.Millisecond)))
	n := c.Node(0)
	start := time.Now()
	_ = n.PutChunk(context.Background(), ChunkID{}, []byte{1}, []uint64{1})
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Fatalf("operation returned in %v, delay not applied", elapsed)
	}
}

func TestUniformDelayBounds(t *testing.T) {
	d := UniformDelay(time.Millisecond, 3*time.Millisecond, 42)
	for i := 0; i < 100; i++ {
		v := d("read")
		if v < time.Millisecond || v >= 3*time.Millisecond {
			t.Fatalf("delay %v out of bounds", v)
		}
	}
	// Degenerate range.
	d2 := UniformDelay(time.Millisecond, time.Millisecond, 42)
	if d2("read") != time.Millisecond {
		t.Fatal("degenerate range mishandled")
	}
}

func TestClusterCloseIdempotent(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.Close() // must not panic
	if _, err := c.Node(0).ReadChunk(context.Background(), ChunkID{}); !errors.Is(err, ErrClusterClosed) {
		t.Fatalf("err = %v", err)
	}
}

func BenchmarkNodePut4K(b *testing.B) {
	c, _ := NewCluster(1)
	defer c.Close()
	n := c.Node(0)
	data := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.PutChunk(context.Background(), ChunkID{Stripe: uint64(i % 16)}, data, []uint64{uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNodeCompareAndAdd4K(b *testing.B) {
	c, _ := NewCluster(1)
	defer c.Close()
	n := c.Node(0)
	data := make([]byte, 4096)
	id := ChunkID{Stripe: 1}
	if err := n.PutChunk(context.Background(), id, data, []uint64{0}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.CompareAndAdd(context.Background(), id, 0, uint64(i), uint64(i+1), data); err != nil {
			b.Fatal(err)
		}
	}
}
