package sim

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDeleteChunk(t *testing.T) {
	c := newTestCluster(t, 1)
	n := c.Node(0)
	id := ChunkID{Stripe: 4, Shard: 2}
	if err := n.PutChunk(context.Background(), id, []byte{1}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := n.DeleteChunk(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if ok, _ := n.HasChunk(context.Background(), id); ok {
		t.Fatal("chunk survived delete")
	}
	// Idempotent: deleting again succeeds.
	if err := n.DeleteChunk(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	// Down node rejects deletes.
	n.Crash()
	if err := n.DeleteChunk(context.Background(), id); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("err = %v", err)
	}
}

// TestDeleteChunksOneGate: a vectored removal crosses the simulated
// network once — one latency window for the whole frame — removes every
// listed chunk, skips missing ones, and on a crashed node removes
// nothing.
func TestDeleteChunksOneGate(t *testing.T) {
	c := newTestCluster(t, 1)
	n := c.Node(0)
	ctx := context.Background()
	ids := []ChunkID{{Stripe: 1}, {Stripe: 2, Shard: 3}, {Stripe: 3, Shard: 8}}
	for _, id := range ids {
		if err := n.PutChunk(ctx, id, []byte{1}, []uint64{1}); err != nil {
			t.Fatal(err)
		}
	}
	n.Crash()
	if err := n.DeleteChunks(ctx, ids); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("crashed node: err = %v", err)
	}
	if got, _ := n.Engine().ChunkCount(ctx); got != len(ids) {
		t.Fatalf("crashed node holds %d chunks, want %d", got, len(ids))
	}
	n.Restart()
	var gates atomic.Int32
	n.SetDelay(func(op string) time.Duration {
		gates.Add(1)
		return 0
	})
	if err := n.DeleteChunks(ctx, append(ids, ChunkID{Stripe: 99})); err != nil {
		t.Fatal(err)
	}
	if got := gates.Load(); got != 1 {
		t.Fatalf("the frame crossed %d latency windows, want 1", got)
	}
	if got, _ := n.Engine().ChunkCount(ctx); got != 0 {
		t.Fatalf("%d chunks survived DeleteChunks", got)
	}
}

func TestPutChunkIfFresherInstallsOnMissing(t *testing.T) {
	c := newTestCluster(t, 1)
	n := c.Node(0)
	id := ChunkID{Stripe: 1}
	if err := n.PutChunkIfFresher(context.Background(), id, []byte{1}, []uint64{3}); err != nil {
		t.Fatal(err)
	}
	got, _ := n.ReadChunk(context.Background(), id)
	if got.Versions[0] != 3 || got.Data[0] != 1 {
		t.Fatalf("chunk = %+v", got)
	}
}

func TestPutChunkIfFresherRefusesRegression(t *testing.T) {
	c := newTestCluster(t, 1)
	n := c.Node(0)
	id := ChunkID{Stripe: 1}
	if err := n.PutChunk(context.Background(), id, []byte{1, 1}, []uint64{5, 2}); err != nil {
		t.Fatal(err)
	}
	// Slot 0 would regress 5 -> 4: reject, state unchanged.
	err := n.PutChunkIfFresher(context.Background(), id, []byte{9, 9}, []uint64{4, 3})
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v", err)
	}
	got, _ := n.ReadChunk(context.Background(), id)
	if got.Data[0] != 1 || got.Versions[0] != 5 {
		t.Fatal("rejected install mutated chunk")
	}
	// Componentwise >= accepted (equal in slot 0, ahead in slot 1).
	if err := n.PutChunkIfFresher(context.Background(), id, []byte{7, 7}, []uint64{5, 3}); err != nil {
		t.Fatal(err)
	}
	got, _ = n.ReadChunk(context.Background(), id)
	if got.Data[0] != 7 || got.Versions[1] != 3 {
		t.Fatalf("fresher install skipped: %+v", got)
	}
	// Identical vector: idempotent overwrite accepted.
	if err := n.PutChunkIfFresher(context.Background(), id, []byte{8, 8}, []uint64{5, 3}); err != nil {
		t.Fatal(err)
	}
}

func TestPutChunkIfFresherShapeChecks(t *testing.T) {
	c := newTestCluster(t, 1)
	n := c.Node(0)
	id := ChunkID{Stripe: 1}
	if err := n.PutChunkIfFresher(context.Background(), id, []byte{1}, nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
	if err := n.PutChunk(context.Background(), id, []byte{1}, []uint64{1, 2}); err != nil {
		t.Fatal(err)
	}
	// Vector length must match the stored chunk's.
	if err := n.PutChunkIfFresher(context.Background(), id, []byte{2}, []uint64{3}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
}

// TestPutChunkIfFresherRace drives concurrent guarded installs and
// unconditional writes; under -race this checks the actor fully
// serialises the version comparisons.
func TestPutChunkIfFresherRace(t *testing.T) {
	c := newTestCluster(t, 1)
	n := c.Node(0)
	id := ChunkID{Stripe: 1}
	if err := n.PutChunk(context.Background(), id, []byte{0}, []uint64{0}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 1; i <= 100; i++ {
				v := uint64(i)
				if g%2 == 0 {
					_ = n.PutChunkIfFresher(context.Background(), id, []byte{byte(i)}, []uint64{v})
				} else {
					_ = n.PutChunk(context.Background(), id, []byte{byte(i)}, []uint64{v})
				}
			}
		}(g)
	}
	wg.Wait()
	got, err := n.ReadChunk(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Versions[0] > 100 {
		t.Fatalf("impossible version %d", got.Versions[0])
	}
}
