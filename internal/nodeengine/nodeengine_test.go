package nodeengine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"trapquorum/client"
	"trapquorum/internal/memstore"
)

func newTestEngine(t testing.TB) *Engine {
	t.Helper()
	e := New(memstore.New(), WithName("test node"))
	t.Cleanup(func() { e.Close() })
	return e
}

func TestPutReadRoundTrip(t *testing.T) {
	e := newTestEngine(t)
	id := client.ChunkID{Stripe: 7, Shard: 2}
	if err := e.PutChunk(context.Background(), id, []byte{1, 2, 3}, []uint64{5}); err != nil {
		t.Fatal(err)
	}
	got, err := e.ReadChunk(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data) != "\x01\x02\x03" || got.Versions[0] != 5 {
		t.Fatalf("got %+v", got)
	}
	vers, _, err := e.ReadVersions(context.Background(), id)
	if err != nil || len(vers) != 1 || vers[0] != 5 {
		t.Fatalf("versions = %v, %v", vers, err)
	}
}

func TestMissingChunkErrors(t *testing.T) {
	e := newTestEngine(t)
	id := client.ChunkID{Stripe: 1}
	if _, err := e.ReadChunk(context.Background(), id); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("ReadChunk err = %v", err)
	}
	if _, _, err := e.ReadVersions(context.Background(), id); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("ReadVersions err = %v", err)
	}
	if err := e.CompareAndPut(context.Background(), id, 0, 0, 1, []byte{1}); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("CompareAndPut err = %v", err)
	}
	if err := e.CompareAndAdd(context.Background(), id, 0, 0, 1, []byte{1}); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("CompareAndAdd err = %v", err)
	}
}

func TestCompareAndPutSemantics(t *testing.T) {
	e := newTestEngine(t)
	id := client.ChunkID{Stripe: 3}
	if err := e.PutChunk(context.Background(), id, []byte{1}, []uint64{4}); err != nil {
		t.Fatal(err)
	}
	if err := e.CompareAndPut(context.Background(), id, 0, 4, 5, []byte{2}); err != nil {
		t.Fatal(err)
	}
	got, _ := e.ReadChunk(context.Background(), id)
	if got.Data[0] != 2 || got.Versions[0] != 5 {
		t.Fatalf("after CAP: %+v", got)
	}
	// Wrong expectation: rejected, state unchanged.
	if err := e.CompareAndPut(context.Background(), id, 0, 4, 6, []byte{3}); !errors.Is(err, client.ErrVersionMismatch) {
		t.Fatalf("err = %v", err)
	}
	got, _ = e.ReadChunk(context.Background(), id)
	if got.Data[0] != 2 || got.Versions[0] != 5 {
		t.Fatalf("mismatch mutated chunk: %+v", got)
	}
	// Bad slot.
	if err := e.CompareAndPut(context.Background(), id, 3, 5, 6, []byte{1}); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
}

func TestCompareAndAddSemantics(t *testing.T) {
	e := newTestEngine(t)
	id := client.ChunkID{Stripe: 3, Shard: 8}
	if err := e.PutChunk(context.Background(), id, []byte{0xf0, 0x0f}, []uint64{1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.CompareAndAdd(context.Background(), id, 1, 1, 2, []byte{0x0f, 0x0f}); err != nil {
		t.Fatal(err)
	}
	got, _ := e.ReadChunk(context.Background(), id)
	if got.Data[0] != 0xff || got.Data[1] != 0x00 {
		t.Fatalf("XOR wrong: %v", got.Data)
	}
	if got.Versions[0] != 1 || got.Versions[1] != 2 || got.Versions[2] != 1 {
		t.Fatalf("versions wrong: %v", got.Versions)
	}
	// Stale expectation rejected without mutation.
	if err := e.CompareAndAdd(context.Background(), id, 1, 1, 3, []byte{1, 1}); !errors.Is(err, client.ErrVersionMismatch) {
		t.Fatalf("err = %v", err)
	}
	// Size mismatch.
	if err := e.CompareAndAdd(context.Background(), id, 1, 2, 3, []byte{1}); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
}

func TestPutChunkIfFresherSemantics(t *testing.T) {
	e := newTestEngine(t)
	id := client.ChunkID{Stripe: 1}
	// Missing chunk: installs.
	if err := e.PutChunkIfFresher(context.Background(), id, []byte{1, 1}, []uint64{5, 2}); err != nil {
		t.Fatal(err)
	}
	// Regression in slot 0: rejected.
	if err := e.PutChunkIfFresher(context.Background(), id, []byte{9, 9}, []uint64{4, 3}); !errors.Is(err, client.ErrVersionMismatch) {
		t.Fatalf("err = %v", err)
	}
	// Componentwise >=: accepted.
	if err := e.PutChunkIfFresher(context.Background(), id, []byte{7, 7}, []uint64{5, 3}); err != nil {
		t.Fatal(err)
	}
	// Shape mismatch.
	if err := e.PutChunkIfFresher(context.Background(), id, []byte{2}, []uint64{9}); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
	// Empty vector.
	if err := e.PutChunkIfFresher(context.Background(), id, []byte{2}, nil); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("err = %v", err)
	}
}

func TestDeleteHasWipeCount(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	a := client.ChunkID{Stripe: 1}
	b := client.ChunkID{Stripe: 2}
	for _, id := range []client.ChunkID{a, b} {
		if err := e.PutChunk(ctx, id, []byte{1}, []uint64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := e.ChunkCount(ctx); n != 2 {
		t.Fatalf("count = %d", n)
	}
	if err := e.DeleteChunk(ctx, a); err != nil {
		t.Fatal(err)
	}
	if ok, _ := e.HasChunk(ctx, a); ok {
		t.Fatal("chunk survived delete")
	}
	// Idempotent delete.
	if err := e.DeleteChunk(ctx, a); err != nil {
		t.Fatal(err)
	}
	if err := e.Wipe(ctx); err != nil {
		t.Fatal(err)
	}
	if n, _ := e.ChunkCount(ctx); n != 0 {
		t.Fatalf("count after wipe = %d", n)
	}
}

func TestExpiredContextRejectedUpFront(t *testing.T) {
	e := newTestEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.PutChunk(ctx, client.ChunkID{}, []byte{1}, []uint64{1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if got, _, _, _, _ := e.store.Get(client.ChunkID{}); got != nil {
		t.Fatal("cancelled put reached the store")
	}
	if e.Metrics().CtxAborts.Load() == 0 {
		t.Fatal("ctx abort not counted")
	}
}

// TestConcurrentConditionalOpsSerialise drives many concurrent
// conditional adds at the same chunk: exactly one writer may win each
// version slot transition.
func TestConcurrentConditionalOpsSerialise(t *testing.T) {
	e := newTestEngine(t)
	id := client.ChunkID{Stripe: 1, Shard: 3}
	if err := e.PutChunk(context.Background(), id, []byte{0}, []uint64{0}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var successes atomic.Int64
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.CompareAndAdd(context.Background(), id, 0, 0, 1, []byte{1}); err == nil {
				successes.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := successes.Load(); got != 1 {
		t.Fatalf("%d writers won the 0→1 transition, want exactly 1", got)
	}
	chunk, _ := e.ReadChunk(context.Background(), id)
	if chunk.Versions[0] != 1 || chunk.Data[0] != 1 {
		t.Fatalf("final chunk %+v", chunk)
	}
}

// failStore wraps memstore and fails Put after a programmable number
// of successes, modelling a store whose durability layer errors out.
type failStore struct {
	*memstore.Store
	allow int
}

func (f *failStore) Put(id client.ChunkID, data []byte, versions []uint64, meta Meta) error {
	if f.allow <= 0 {
		return fmt.Errorf("failstore: out of quota")
	}
	f.allow--
	return f.Store.Put(id, data, versions, meta)
}

// TestStoreErrorLeavesStateIntact: when the store rejects the commit,
// the engine must not have mutated the visible chunk (the staged-sum
// rule for CompareAndAdd).
func TestStoreErrorLeavesStateIntact(t *testing.T) {
	fs := &failStore{Store: memstore.New(), allow: 1}
	e := New(fs)
	defer e.Close()
	id := client.ChunkID{Stripe: 1}
	if err := e.PutChunk(context.Background(), id, []byte{0xf0}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := e.CompareAndAdd(context.Background(), id, 0, 1, 2, []byte{0x0f}); err == nil {
		t.Fatal("store failure not surfaced")
	}
	got, err := e.ReadChunk(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[0] != 0xf0 || got.Versions[0] != 1 {
		t.Fatalf("failed commit mutated chunk: %+v", got)
	}
}

func TestMetricsCounting(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	id := client.ChunkID{Stripe: 1}
	_ = e.PutChunk(ctx, id, []byte{1}, []uint64{1})
	_, _ = e.ReadChunk(ctx, id)
	_, _, _ = e.ReadVersions(ctx, id)
	_ = e.CompareAndAdd(ctx, id, 0, 99, 100, []byte{1}) // version reject
	m := e.Metrics()
	if m.Writes.Load() != 1 || m.Reads.Load() != 1 || m.VersionQueries.Load() != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Adds.Load() != 1 || m.VersionRejects.Load() != 1 {
		t.Fatalf("add metrics = %+v", m)
	}
	if m.ServedOperations.Load() != 4 {
		t.Fatalf("served = %d", m.ServedOperations.Load())
	}
}

// TestDeleteChunks: a vectored removal deletes every listed chunk,
// skips missing ones like DeleteChunk, counts as one served operation,
// and on a cancelled context leaves the store untouched.
func TestDeleteChunks(t *testing.T) {
	e := newTestEngine(t)
	ctx := context.Background()
	ids := []client.ChunkID{{Stripe: 1}, {Stripe: 1, Shard: 7}, {Stripe: 2, Shard: 3}}
	for _, id := range ids {
		if err := e.PutChunk(ctx, id, []byte{1}, []uint64{1}); err != nil {
			t.Fatal(err)
		}
	}
	keep := client.ChunkID{Stripe: 3}
	if err := e.PutChunk(ctx, keep, []byte{2}, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := e.DeleteChunks(cancelled, ids); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled: err = %v", err)
	}
	if n, _ := e.ChunkCount(ctx); n != len(ids)+1 {
		t.Fatalf("cancelled removal left %d chunks, want %d", n, len(ids)+1)
	}
	served := e.Metrics().ServedOperations.Load()
	if err := e.DeleteChunks(ctx, append(ids, client.ChunkID{Stripe: 99})); err != nil {
		t.Fatal(err)
	}
	if got := e.Metrics().ServedOperations.Load() - served; got != 1 {
		t.Fatalf("DeleteChunks served as %d operations, want 1", got)
	}
	for _, id := range ids {
		if ok, _ := e.HasChunk(ctx, id); ok {
			t.Fatalf("%v survived DeleteChunks", id)
		}
	}
	if ok, _ := e.HasChunk(ctx, keep); !ok {
		t.Fatal("an unlisted chunk was removed")
	}
}
