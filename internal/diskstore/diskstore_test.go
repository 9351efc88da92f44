package diskstore_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"trapquorum/client"
	"trapquorum/internal/diskstore"
	"trapquorum/internal/nodeengine"
)

// Interface conformance with the engine's store contract.
var _ nodeengine.ChunkStore = (*diskstore.Store)(nil)

func openTestStore(t *testing.T, dir string) *diskstore.Store {
	t.Helper()
	s, err := diskstore.Open(dir, diskstore.WithSyncWrites(false))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetDeleteRoundTrip(t *testing.T) {
	s := openTestStore(t, t.TempDir())
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
	if n, _ := s.Len(); n != 1 {
		t.Fatalf("len = %d", n)
	}
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok, _ := s.Get(id); ok {
		t.Fatal("chunk survived delete")
	}
	// Idempotent delete.
	if err := s.Delete(id); err != nil {
		t.Fatal(err)
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

func TestReopenRecoversChunks(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	a := client.ChunkID{Stripe: 1, Shard: 0}
	b := client.ChunkID{Stripe: 2, Shard: 9}
	if err := s.Put(a, []byte{1}, []uint64{1}, nodeengine.Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b, []byte{2, 2}, []uint64{3, 4, 5}, nodeengine.Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(a, []byte{9}, []uint64{2}, nodeengine.Meta{}); err != nil { // overwrite
		t.Fatal(err)
	}
	s.Close()

	r := openTestStore(t, dir)
	defer r.Close()
	if n, _ := r.Len(); n != 2 {
		t.Fatalf("recovered %d chunks", n)
	}
	data, versions, _, ok, _ := r.Get(a)
	if !ok || data[0] != 9 || versions[0] != 2 {
		t.Fatalf("chunk a = %v %v %v", data, versions, ok)
	}
	data, versions, _, ok, _ = r.Get(b)
	if !ok || len(data) != 2 || len(versions) != 3 || versions[2] != 5 {
		t.Fatalf("chunk b = %v %v %v", data, versions, ok)
	}
}

func TestWipeIsDurable(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	if err := s.Put(client.ChunkID{Stripe: 1}, []byte{1}, []uint64{1}, nodeengine.Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Wipe(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	r := openTestStore(t, dir)
	defer r.Close()
	if n, _ := r.Len(); n != 0 {
		t.Fatalf("wipe did not survive reopen: %d chunks", n)
	}
}

// TestCrashBetweenWALAppendAndApply kills the store in the window
// where the intent is durable but not applied, reopens the directory,
// and asserts the engine serves the intended (consistent) chunk and
// version view: the WAL replay finishes the mutation. The crashed put
// is reported failed with the crash as its cause.
func TestCrashBetweenWALAppendAndApply(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	id := client.ChunkID{Stripe: 4, Shard: 1}
	if err := s.Put(id, []byte{1, 1}, []uint64{1}, nodeengine.Meta{}); err != nil {
		t.Fatal(err)
	}
	crash := errors.New("power cut")
	s.SetCrashAfterWAL(crash)
	if err := s.Put(id, []byte{2, 2}, []uint64{2}, nodeengine.Meta{}); !errors.Is(err, crash) {
		t.Fatalf("err = %v", err)
	}
	// The process dies here: the store is poisoned, so Close runs no
	// checkpoint. No chunk file holds version 2; the WAL holds its
	// durable intent.
	s.Close() // only releases the fd; the WAL content remains

	e := nodeengine.New(openTestStore(t, dir))
	defer e.Close()
	got, err := e.ReadChunk(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[0] != 2 || got.Versions[0] != 2 {
		t.Fatalf("recovered chunk %+v, want the WAL-committed v2", got)
	}
}

// TestCrashBeforeWALCompletes models the other side of the window: a
// torn WAL tail (the append itself was cut short) is discarded, and
// the pre-crash state is served.
func TestCrashBeforeWALCompletes(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	id := client.ChunkID{Stripe: 4, Shard: 1}
	if err := s.Put(id, []byte{1, 1}, []uint64{1}, nodeengine.Meta{}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Simulate a torn append: garbage that is not a complete record.
	wal := filepath.Join(dir, "wal")
	if err := os.WriteFile(wal, []byte{0, 0, 0, 99, 1, 2}, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openTestStore(t, dir)
	defer r.Close()
	data, versions, _, ok, _ := r.Get(id)
	if !ok || data[0] != 1 || versions[0] != 1 {
		t.Fatalf("pre-crash state lost: %v %v %v", data, versions, ok)
	}
}

func TestCrashedDeleteReplays(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	id := client.ChunkID{Stripe: 9, Shard: 3}
	if err := s.Put(id, []byte{1}, []uint64{1}, nodeengine.Meta{}); err != nil {
		t.Fatal(err)
	}
	crash := errors.New("power cut")
	s.SetCrashAfterWAL(crash)
	if err := s.Delete(id); !errors.Is(err, crash) {
		t.Fatalf("err = %v", err)
	}
	s.Close()
	r := openTestStore(t, dir)
	defer r.Close()
	if _, _, _, ok, _ := r.Get(id); ok {
		t.Fatal("WAL-committed delete not replayed")
	}
}

func TestOrphanTempFilesCleaned(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	if err := s.Put(client.ChunkID{Stripe: 1}, []byte{1}, []uint64{1}, nodeengine.Meta{}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	tmp := filepath.Join(dir, "chunks", "deadbeef.chunk.tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := openTestStore(t, dir)
	defer r.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("orphan temp file survived recovery")
	}
	if n, _ := r.Len(); n != 1 {
		t.Fatalf("len = %d", n)
	}
}

func TestCorruptChunkFileSurfaces(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	id := client.ChunkID{Stripe: 1}
	if err := s.Put(id, []byte{1, 2, 3, 4}, []uint64{1}, nodeengine.Meta{}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// Flip a data byte inside the single chunk file.
	entries, err := os.ReadDir(filepath.Join(dir, "chunks"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries = %v, %v", entries, err)
	}
	path := filepath.Join(dir, "chunks", entries[0].Name())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-6] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// A rotten chunk file must not keep the node from starting: Open
	// quarantines the chunk, Get surfaces the typed corruption (so the
	// engine's probe/health path sees it), and a fresh Put clears it.
	r := openTestStore(t, dir)
	defer r.Close()
	if _, _, _, _, err := r.Get(id); !errors.Is(err, client.ErrCorrupt) {
		t.Fatalf("Get on quarantined chunk = %v, want client.ErrCorrupt", err)
	}
	if n, _ := r.Len(); n != 1 {
		t.Fatalf("quarantined chunk fell out of Len: %d", n)
	}
	ids, err := r.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != id {
		t.Fatalf("Scan = %v, want [%v]", ids, id)
	}
	if err := r.Put(id, []byte{9}, []uint64{2}, nodeengine.Meta{}); err != nil {
		t.Fatal(err)
	}
	data, _, _, ok, err := r.Get(id)
	if err != nil || !ok || data[0] != 9 {
		t.Fatalf("quarantine not cleared by Put: %v %v %v", data, ok, err)
	}
}

// rotChunkFile flips one data byte in id's chunk file, the way media
// rot would: in place, behind the store's back.
func rotChunkFile(t *testing.T, dir string, id client.ChunkID) {
	t.Helper()
	path := filepath.Join(dir, "chunks", fmt.Sprintf("%016x-%08x.chunk", id.Stripe, uint32(id.Shard)))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-6] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestScanJudgesLatestDurableImage: a repair's put heals a quarantined
// chunk, and its fresh image is durable in the WAL while the file on
// disk is still the rotten one. The next at-rest scan must judge the
// fresh image — not re-quarantine the chunk and drop it from the
// mirror, which would send the cluster to repair it again on every
// scan until some later checkpoint rewrote the file.
func TestScanJudgesLatestDurableImage(t *testing.T) {
	dir := t.TempDir()
	id := client.ChunkID{Stripe: 3, Shard: 5}
	s := openTestStore(t, dir)
	if err := s.Put(id, []byte{1, 2, 3, 4}, []uint64{1}, nodeengine.Meta{}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	rotChunkFile(t, dir, id)

	r := openTestStore(t, dir)
	defer r.Close()
	ids, err := r.Scan()
	if err != nil || len(ids) != 1 || ids[0] != id {
		t.Fatalf("scan of the rotten chunk = %v, %v; want [%v]", ids, err, id)
	}
	if err := r.Put(id, []byte{5, 6, 7, 8}, []uint64{2}, nodeengine.Meta{}); err != nil {
		t.Fatal(err)
	}
	if ids, err := r.Scan(); err != nil || len(ids) != 0 {
		t.Fatalf("scan after the healing put = %v, %v; want clean", ids, err)
	}
	data, versions, _, ok, err := r.Get(id)
	if err != nil || !ok || data[0] != 5 || versions[0] != 2 {
		t.Fatalf("healed chunk = %v %v %v %v", data, versions, ok, err)
	}
}

// crashCopy copies a live store's WAL and chunk files into a fresh
// directory: the state a power cut would leave behind, with every
// acknowledged record in the log and no checkpoint since.
func crashCopy(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dst, "chunks"), 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "chunks", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range append(files, filepath.Join(dir, "wal")) {
		raw, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(dir, src)
		if err := os.WriteFile(filepath.Join(dst, rel), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestRecoveryFoldsTheWAL: a crash leaves a WAL holding a put, an
// overwrite, a delete, a wipe and puts after the wipe — one of them the
// fresh image of a chunk whose file on disk is rotten — and no
// checkpoint since. Open folds the log through the committer's own
// record interpreter and checkpoints it: the node comes back in exactly
// the acknowledged state, the rotten chunk healed, and the log empty.
func TestRecoveryFoldsTheWAL(t *testing.T) {
	dir := t.TempDir()
	rotten := client.ChunkID{Stripe: 1}
	before := client.ChunkID{Stripe: 2} // on disk before the log; the wipe removes it
	a, b, c := client.ChunkID{Stripe: 10}, client.ChunkID{Stripe: 11}, client.ChunkID{Stripe: 12}
	s := openTestStore(t, dir)
	for _, id := range []client.ChunkID{rotten, before} {
		if err := s.Put(id, []byte{1}, []uint64{1}, nodeengine.Meta{}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	rotChunkFile(t, dir, rotten)

	s = openTestStore(t, dir)
	defer s.Close()
	if _, _, _, _, err := s.Get(rotten); !errors.Is(err, client.ErrCorrupt) {
		t.Fatalf("rotten chunk not quarantined at open: %v", err)
	}
	steps := []func() error{
		func() error { return s.Put(a, []byte{1}, []uint64{1}, nodeengine.Meta{}) },
		func() error { return s.Put(b, []byte{1}, []uint64{1}, nodeengine.Meta{}) },
		func() error { return s.Put(a, []byte{2}, []uint64{2}, nodeengine.Meta{}) },
		func() error { return s.Delete(b) },
		func() error { return s.Wipe() },
		func() error { return s.Put(rotten, []byte{7}, []uint64{2}, nodeengine.Meta{}) },
		func() error { return s.Put(c, []byte{3}, []uint64{1}, nodeengine.Meta{}) },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	crashed := crashCopy(t, dir)

	want := map[client.ChunkID]byte{rotten: 7, c: 3}
	check := func(r *diskstore.Store) {
		t.Helper()
		if n, err := r.Len(); err != nil || n != len(want) {
			t.Fatalf("recovered %d chunks (%v), want %d", n, err, len(want))
		}
		for id, first := range want {
			data, _, _, ok, err := r.Get(id)
			if err != nil || !ok || data[0] != first {
				t.Fatalf("chunk %v = %v %v %v, want first byte %d", id, data, ok, err, first)
			}
		}
		for _, id := range []client.ChunkID{a, b, before} {
			if _, _, _, ok, err := r.Get(id); ok || err != nil {
				t.Fatalf("chunk %v = %v, %v; want gone", id, ok, err)
			}
		}
		if ids, err := r.Scan(); err != nil || len(ids) != 0 {
			t.Fatalf("scan after recovery = %v, %v; want clean", ids, err)
		}
	}

	r := openTestStore(t, crashed)
	if info, err := os.Stat(filepath.Join(crashed, "wal")); err != nil || info.Size() != 0 {
		t.Fatalf("wal after recovery: %v, %v; want empty", info, err)
	}
	check(r)
	// A crash right after recovery finds nothing left to replay and
	// the same state in the chunk files alone.
	again := crashCopy(t, crashed)
	r.Close()
	if info, err := os.Stat(filepath.Join(again, "wal")); err != nil || info.Size() != 0 {
		t.Fatalf("wal at second reopen: %v, %v; want empty", info, err)
	}
	r2 := openTestStore(t, again)
	defer r2.Close()
	check(r2)
}

// TestEngineOverDiskStore runs the protocol-critical conditional ops
// through a real on-disk store, across a reopen.
func TestEngineOverDiskStore(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	e := nodeengine.New(openTestStore(t, dir))
	id := client.ChunkID{Stripe: 3, Shard: 8}
	if err := e.PutChunk(ctx, id, []byte{0xf0, 0x0f}, []uint64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.CompareAndAdd(ctx, id, 1, 1, 2, []byte{0x0f, 0x0f}); err != nil {
		t.Fatal(err)
	}
	if err := e.CompareAndAdd(ctx, id, 1, 1, 3, []byte{1, 1}); !errors.Is(err, client.ErrVersionMismatch) {
		t.Fatalf("err = %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r := nodeengine.New(openTestStore(t, dir))
	defer r.Close()
	got, err := r.ReadChunk(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[0] != 0xff || got.Data[1] != 0x00 || got.Versions[1] != 2 {
		t.Fatalf("reopened chunk %+v", got)
	}
	if err := r.CompareAndPut(ctx, id, 0, 1, 2, []byte{5, 5}); err != nil {
		t.Fatal(err)
	}
}

// TestDirectoryLockExcludesSecondOpen: two stores on one directory
// would corrupt each other's WAL; the second Open must fail fast.
func TestDirectoryLockExcludesSecondOpen(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	if _, err := diskstore.Open(dir, diskstore.WithSyncWrites(false)); !errors.Is(err, diskstore.ErrLocked) {
		t.Fatalf("second open = %v, want ErrLocked", err)
	}
	s.Close()
	// Released on close: reopening now succeeds.
	r := openTestStore(t, dir)
	r.Close()
}

// TestPoisonedAfterFailedMutation: once a mutation dies between its
// durable intent and its apply, the store's mirror is of unknown
// accuracy — every further operation must refuse until a reopen
// reconverges through recovery.
func TestPoisonedAfterFailedMutation(t *testing.T) {
	dir := t.TempDir()
	s := openTestStore(t, dir)
	id := client.ChunkID{Stripe: 1}
	if err := s.Put(id, []byte{1}, []uint64{1}, nodeengine.Meta{}); err != nil {
		t.Fatal(err)
	}
	crash := errors.New("power cut")
	s.SetCrashAfterWAL(crash)
	if err := s.Put(id, []byte{2}, []uint64{2}, nodeengine.Meta{}); !errors.Is(err, crash) {
		t.Fatalf("err = %v", err)
	}
	s.SetCrashAfterWAL(nil)
	// Poisoned: reads and writes refuse rather than serve a mirror
	// that may disagree with disk.
	if _, _, _, _, err := s.Get(id); err == nil {
		t.Fatal("poisoned store served a read")
	}
	if err := s.Put(id, []byte{3}, []uint64{3}, nodeengine.Meta{}); err == nil {
		t.Fatal("poisoned store accepted a write")
	}
	if _, err := s.Len(); err == nil {
		t.Fatal("poisoned store answered Len")
	}
	s.Close()
	// Reopen reconverges (the WAL intent is replayed) and serves.
	r := openTestStore(t, dir)
	defer r.Close()
	data, versions, _, ok, err := r.Get(id)
	if err != nil || !ok || data[0] != 2 || versions[0] != 2 {
		t.Fatalf("recovered chunk = %v %v %v %v", data, versions, ok, err)
	}
}

func TestSyncWritesOn(t *testing.T) {
	// Smoke the default (sync) path once so fsync plumbing is covered.
	s, err := diskstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Put(client.ChunkID{Stripe: 1}, []byte{1}, []uint64{1}, nodeengine.Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(client.ChunkID{Stripe: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Wipe(); err != nil {
		t.Fatal(err)
	}
}
