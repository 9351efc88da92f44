package diskstore_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trapquorum/client"
	"trapquorum/internal/diskstore"
	"trapquorum/internal/nodeengine"
)

// Group commit must preserve every durability property of the
// per-mutation path: acknowledged mutations survive reopen, the crash
// window between WAL append and apply replays, unknown-durability
// failures poison the store, and reads never observe state a crash
// could still revoke.

// Interface conformance with the engine's batching contract.
var _ nodeengine.BatchStore = (*diskstore.Store)(nil)

func openGroupStore(t *testing.T, dir string) *diskstore.Store {
	t.Helper()
	s, err := diskstore.Open(dir,
		diskstore.WithSyncWrites(false),
		diskstore.WithGroupCommit(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// heldCommits holds the committer at the commit gate — after it has
// swapped a batch out, before that batch's WAL append — so a test
// decides, not a timer, what is staged but not yet durable.
type heldCommits struct {
	arrived chan struct{} // signalled when the first batch reaches the gate
	open    chan struct{} // closed by release: every batch passes from then on
	calls   atomic.Int32  // batches that reached the gate
}

func holdCommits(s *diskstore.Store) *heldCommits {
	g := &heldCommits{arrived: make(chan struct{}, 1), open: make(chan struct{})}
	s.SetCommitGate(func() {
		if g.calls.Add(1) == 1 {
			g.arrived <- struct{}{}
		}
		<-g.open
	})
	return g
}

func (g *heldCommits) release() { close(g.open) }

// waitResult calls a staged mutation's wait and fails the test instead
// of hanging it when the committer never resolves the batch.
func waitResult(t *testing.T, wait func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("staged mutation never resolved")
		return nil
	}
}

func TestGroupCommitRoundTrip(t *testing.T) {
	s := openGroupStore(t, t.TempDir())
	defer s.Close()
	id := client.ChunkID{Stripe: 7, Shard: 2}
	if err := s.Put(id, []byte{1, 2, 3}, []uint64{5, 6}, nodeengine.Meta{}); err != nil {
		t.Fatal(err)
	}
	data, versions, _, ok, err := s.Get(id)
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if string(data) != "\x01\x02\x03" || versions[0] != 5 || versions[1] != 6 {
		t.Fatalf("got %v %v", data, versions)
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok, _ := s.Get(id); ok {
		t.Fatal("chunk survived delete")
	}
	if err := s.Put(id, []byte{9}, []uint64{1}, nodeengine.Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Wipe(); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.Len(); n != 0 {
		t.Fatalf("len after wipe = %d", n)
	}
}

// TestGroupCommitReopenDurability closes a group-commit store and
// reopens it with the plain per-mutation configuration: everything the
// batched path acknowledged must be there, and the shutdown checkpoint
// must have left an empty WAL behind.
func TestGroupCommitReopenDurability(t *testing.T) {
	dir := t.TempDir()
	s := openGroupStore(t, dir)
	for i := 0; i < 20; i++ {
		id := client.ChunkID{Stripe: uint64(i), Shard: 1}
		if err := s.Put(id, []byte{byte(i)}, []uint64{uint64(i)}, nodeengine.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete(client.ChunkID{Stripe: 3, Shard: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTestStore(t, dir)
	defer r.Close()
	if n, _ := r.Len(); n != 19 {
		t.Fatalf("recovered %d chunks, want 19", n)
	}
	data, versions, _, ok, _ := r.Get(client.ChunkID{Stripe: 11, Shard: 1})
	if !ok || data[0] != 11 || versions[0] != 11 {
		t.Fatalf("chunk 11 = %v %v %v", data, versions, ok)
	}
	if _, _, _, ok, _ = r.Get(client.ChunkID{Stripe: 3, Shard: 1}); ok {
		t.Fatal("deleted chunk survived reopen")
	}
}

// TestGroupCommitCrashAfterWAL is the group twin of
// TestCrashBetweenWALAppendAndApply: the batch's WAL append is durable
// but the process dies before the deferred applies. The mutation is
// reported failed with unknown durability, the store poisons — and the
// reopen replays the WAL, finishing the mutation.
func TestGroupCommitCrashAfterWAL(t *testing.T) {
	dir := t.TempDir()
	s := openGroupStore(t, dir)
	id := client.ChunkID{Stripe: 4, Shard: 1}
	if err := s.Put(id, []byte{1, 1}, []uint64{1}, nodeengine.Meta{}); err != nil {
		t.Fatal(err)
	}
	crash := errors.New("power cut")
	s.SetCrashAfterWAL(crash)
	if err := s.Put(id, []byte{2, 2}, []uint64{2}, nodeengine.Meta{}); !errors.Is(err, crash) {
		t.Fatalf("err = %v", err)
	}
	// Poisoned until reopen: mutations and reads both refuse.
	if err := s.Put(id, []byte{3}, []uint64{3}, nodeengine.Meta{}); !errors.Is(err, crash) {
		t.Fatalf("post-poison put err = %v", err)
	}
	if _, _, _, _, err := s.Get(id); !errors.Is(err, crash) {
		t.Fatalf("post-poison get err = %v", err)
	}
	s.Close()

	r := openTestStore(t, dir)
	defer r.Close()
	data, versions, _, ok, _ := r.Get(id)
	if !ok || data[0] != 2 || versions[0] != 2 {
		t.Fatalf("recovered %v %v %v, want the WAL-committed v2", data, versions, ok)
	}
}

// TestGroupCommitReadGating: a read of a staged-but-not-yet-durable
// chunk blocks until the batch's fsync, so no client ever observes a
// mutation a crash could revoke. The batch is held at the commit gate;
// the Get must stay blocked for as long as it is, and see the new value
// once it is let through.
func TestGroupCommitReadGating(t *testing.T) {
	s := openGroupStore(t, t.TempDir())
	defer s.Close()
	g := holdCommits(s)
	id := client.ChunkID{Stripe: 1, Shard: 1}
	wait, err := s.PutBatched(id, []byte{42}, []uint64{7}, nodeengine.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	<-g.arrived
	// Untouched ids are never gated, even with a batch in flight.
	if _, _, _, ok, err := s.Get(client.ChunkID{Stripe: 99}); ok || err != nil {
		t.Fatalf("miss = %v, %v", ok, err)
	}
	type result struct {
		data []byte
		ok   bool
		err  error
	}
	got := make(chan result, 1)
	go func() {
		data, _, _, ok, err := s.Get(id)
		got <- result{data, ok, err}
	}()
	// The batch cannot become durable while it is held, so however long
	// this waits, a correct gate never lets the Get through.
	select {
	case r := <-got:
		t.Fatalf("Get returned %v %v %v while its batch was short of the WAL", r.data, r.ok, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	g.release()
	if r := <-got; r.err != nil || !r.ok || r.data[0] != 42 {
		t.Fatalf("gated Get = %v %v %v", r.data, r.ok, r.err)
	}
	if err := waitResult(t, wait); err != nil {
		t.Fatalf("wait after gated read: %v", err)
	}
}

// TestGroupCommitNaturalBatching: the committer takes what is staged
// the moment it sees it, and whatever stages while that batch is being
// made durable is the next batch — one batch, not sixteen. Batch 1 is
// held at the gate standing in for a slow fsync.
func TestGroupCommitNaturalBatching(t *testing.T) {
	dir := t.TempDir()
	s := openGroupStore(t, dir)
	g := holdCommits(s)
	e := nodeengine.New(s)
	ctx := context.Background()
	const followers = 16
	errs := make(chan error, 1+followers)
	put := func(stripe int) {
		errs <- e.PutChunk(ctx, client.ChunkID{Stripe: uint64(stripe)}, []byte{byte(stripe)}, []uint64{1})
	}
	go put(0)
	<-g.arrived
	for w := 1; w <= followers; w++ {
		go put(w)
	}
	for s.Staged() < followers {
		time.Sleep(100 * time.Microsecond)
	}
	g.release()
	for i := 0; i < 1+followers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := g.calls.Load(); n != 2 {
		t.Fatalf("committer made %d batches of 1+%d mutations, want 2", n, followers)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTestStore(t, dir)
	defer r.Close()
	if n, _ := r.Len(); n != 1+followers {
		t.Fatalf("recovered %d chunks, want %d", n, 1+followers)
	}
}

// TestGroupCommitCrashFailsFollowers: the power cut hits after batch
// 1's WAL append with batch 2 already staged behind it. Neither batch
// is acknowledged and neither waiter hangs; the store poisons; the
// reopen finishes batch 1 (its intent was durable) and knows nothing
// of batch 2, which never reached the log.
func TestGroupCommitCrashFailsFollowers(t *testing.T) {
	dir := t.TempDir()
	s := openGroupStore(t, dir)
	g := holdCommits(s)
	first := client.ChunkID{Stripe: 1}
	behind := []client.ChunkID{{Stripe: 2}, {Stripe: 3}}
	wait1, err := s.PutBatched(first, []byte{1}, []uint64{1}, nodeengine.Meta{})
	if err != nil {
		t.Fatal(err)
	}
	<-g.arrived
	var waits []func() error
	for _, id := range behind {
		wait, err := s.PutBatched(id, []byte{2}, []uint64{1}, nodeengine.Meta{})
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, wait)
	}
	crash := errors.New("power cut")
	s.SetCrashAfterWAL(crash)
	g.release()
	for i, wait := range append([]func() error{wait1}, waits...) {
		if err := waitResult(t, wait); !errors.Is(err, crash) {
			t.Fatalf("waiter %d: err = %v, want the crash", i, err)
		}
	}
	if n := g.calls.Load(); n != 1 {
		t.Fatalf("%d batches reached the gate, want only the first", n)
	}
	if err := s.Put(first, []byte{3}, []uint64{2}, nodeengine.Meta{}); !errors.Is(err, crash) {
		t.Fatalf("post-poison put err = %v", err)
	}
	if _, _, _, _, err := s.Get(first); !errors.Is(err, crash) {
		t.Fatalf("post-poison get err = %v", err)
	}
	s.Close()

	r := openTestStore(t, dir)
	defer r.Close()
	if data, _, _, ok, _ := r.Get(first); !ok || data[0] != 1 {
		t.Fatalf("batch 1 after reopen = %v %v, want its WAL-committed put", data, ok)
	}
	for _, id := range behind {
		if _, _, _, ok, _ := r.Get(id); ok {
			t.Fatalf("%s of batch 2 survived: it was never in the WAL", id)
		}
	}
}

// TestGroupCommitConcurrentWriters drives an engine (which serialises
// staging, as the contract requires) from many goroutines and checks
// every acknowledged write is present — both live and after reopen.
func TestGroupCommitConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	e := nodeengine.New(openGroupStore(t, dir))
	const writers, rounds = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			id := client.ChunkID{Stripe: uint64(w), Shard: 0}
			for r := 1; r <= rounds; r++ {
				if err := e.PutChunk(ctx, id, []byte{byte(w), byte(r)}, []uint64{uint64(r)}); err != nil {
					errs <- fmt.Errorf("writer %d round %d: %w", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ctx := context.Background()
	for w := 0; w < writers; w++ {
		got, err := e.ReadChunk(ctx, client.ChunkID{Stripe: uint64(w), Shard: 0})
		if err != nil {
			t.Fatal(err)
		}
		if got.Data[1] != rounds || got.Versions[0] != rounds {
			t.Fatalf("writer %d final chunk %+v", w, got)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTestStore(t, dir)
	defer r.Close()
	if n, _ := r.Len(); n != writers {
		t.Fatalf("recovered %d chunks, want %d", n, writers)
	}
}

// TestGroupCommitWipeGatesReads: a staged wipe gates every read (there
// is no per-id pending entry to key on), and survives reopen.
func TestGroupCommitWipeGatesReads(t *testing.T) {
	dir := t.TempDir()
	s := openGroupStore(t, dir)
	id := client.ChunkID{Stripe: 5}
	if err := s.Put(id, []byte{1}, []uint64{1}, nodeengine.Meta{}); err != nil {
		t.Fatal(err)
	}
	wait, err := s.WipeBatched()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok, err := s.Get(id); ok || err != nil {
		t.Fatalf("read across staged wipe = %v, %v", ok, err)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := openTestStore(t, dir)
	defer r.Close()
	if n, _ := r.Len(); n != 0 {
		t.Fatalf("wipe did not survive reopen: %d chunks", n)
	}
}

// TestGroupCommitScanBesideCheckpoint: the at-rest scan runs under the
// engine lock, the checkpoint on the committer goroutine — and the
// checkpoint removes tombstoned chunk files. A file that vanishes
// between the scan's directory listing and its read is a deleted chunk,
// not a failed scan: the pass must carry on to the files behind it.
func TestGroupCommitScanBesideCheckpoint(t *testing.T) {
	e := nodeengine.New(openGroupStore(t, t.TempDir()))
	defer e.Close()
	ctx := context.Background()
	// Deleting the chunk put `lag` mutations ago keeps a few dozen files
	// on disk, so every checkpoint both writes and removes files while
	// a scan is somewhere in its listing. Each mutation queues behind a
	// scan pass for the engine lock, which is what sizes the loop: at
	// this size the unfixed scan failed twenty runs of twenty.
	const mutations, lag = 1000, 64
	stop := make(chan struct{})
	scanned := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				scanned <- nil
				return
			default:
			}
			if bad, err := e.VerifyStore(ctx); err != nil || len(bad) != 0 {
				scanned <- fmt.Errorf("scan beside a checkpoint = %v, %v", bad, err)
				return
			}
		}
	}()
	for i := 0; i < mutations; i++ {
		if err := e.PutChunk(ctx, client.ChunkID{Stripe: uint64(i)}, []byte{byte(i)}, []uint64{1}); err != nil {
			t.Fatal(err)
		}
		if i >= lag {
			if err := e.DeleteChunk(ctx, client.ChunkID{Stripe: uint64(i - lag)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	if err := <-scanned; err != nil {
		t.Fatal(err)
	}
}
