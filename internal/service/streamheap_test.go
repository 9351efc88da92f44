package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"trapquorum/client"
	"trapquorum/internal/core"
	"trapquorum/internal/nodeengine"
	"trapquorum/internal/trapezoid"
	"trapquorum/placement"
)

// The streaming contract is O(stripe) memory however large the object.
// This test moves a 1 GiB object through PutReader and back through
// GetWriter against file-backed nodes (no in-memory chunk mirror, so
// process heap reflects only the streaming pipeline) while sampling
// the heap: the peak must stay a small multiple of the stripe size,
// nowhere near the object size.

// fileChunkStore is a minimal nodeengine.ChunkStore that keeps chunk
// data in one file per chunk and only the (tiny) version vectors and
// metadata in memory — the counterpart of a node whose data lives on
// disk. Not safe for concurrent use; the engine serialises all calls.
type fileChunkStore struct {
	dir  string
	meta map[client.ChunkID]fileChunkMeta
	last []byte // Get buffer, valid until the next call (per contract)
}

type fileChunkMeta struct {
	versions []uint64
	meta     nodeengine.Meta
}

func newFileChunkStore(dir string) *fileChunkStore {
	return &fileChunkStore{dir: dir, meta: make(map[client.ChunkID]fileChunkMeta)}
}

func (s *fileChunkStore) path(id client.ChunkID) string {
	return filepath.Join(s.dir, fmt.Sprintf("%d_%d.chunk", id.Stripe, id.Shard))
}

func (s *fileChunkStore) Get(id client.ChunkID) ([]byte, []uint64, nodeengine.Meta, bool, error) {
	m, ok := s.meta[id]
	if !ok {
		return nil, nil, nodeengine.Meta{}, false, nil
	}
	f, err := os.Open(s.path(id))
	if err != nil {
		return nil, nil, nodeengine.Meta{}, false, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, nodeengine.Meta{}, false, err
	}
	if cap(s.last) < int(fi.Size()) {
		s.last = make([]byte, fi.Size())
	}
	s.last = s.last[:fi.Size()]
	if _, err := f.ReadAt(s.last, 0); err != nil {
		return nil, nil, nodeengine.Meta{}, false, err
	}
	return s.last, m.versions, m.meta, true, nil
}

func (s *fileChunkStore) Put(id client.ChunkID, data []byte, versions []uint64, meta nodeengine.Meta) error {
	if err := os.WriteFile(s.path(id), data, 0o644); err != nil {
		return err
	}
	mcopy := meta
	mcopy.Rec = append([]client.BlockSum(nil), meta.Rec...)
	s.meta[id] = fileChunkMeta{versions: append([]uint64(nil), versions...), meta: mcopy}
	return nil
}

func (s *fileChunkStore) Delete(id client.ChunkID) error {
	if _, ok := s.meta[id]; !ok {
		return nil
	}
	delete(s.meta, id)
	if err := os.Remove(s.path(id)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

func (s *fileChunkStore) Wipe() error {
	for id := range s.meta {
		if err := s.Delete(id); err != nil {
			return err
		}
	}
	return nil
}

func (s *fileChunkStore) Len() (int, error) { return len(s.meta), nil }
func (s *fileChunkStore) Close() error      { return nil }

// patternByte is the deterministic byte stream both ends agree on.
func patternByte(pos int64) byte {
	x := uint64(pos)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	return byte(x >> 56)
}

// patternReader generates the stream without ever materialising it.
type patternReader struct{ pos, n int64 }

func (r *patternReader) Read(p []byte) (int, error) {
	if r.pos >= r.n {
		return 0, os.ErrDeadlineExceeded // never reached: PutReader reads exactly n
	}
	if int64(len(p)) > r.n-r.pos {
		p = p[:r.n-r.pos]
	}
	for i := range p {
		p[i] = patternByte(r.pos + int64(i))
	}
	r.pos += int64(len(p))
	return len(p), nil
}

// verifyWriter checks the incoming stream against the pattern in
// chunks, holding only one scratch buffer.
type verifyWriter struct {
	pos     int64
	scratch []byte
	bad     atomic.Int64 // first mismatch position + 1, 0 = clean
}

func (w *verifyWriter) Write(p []byte) (int, error) {
	if cap(w.scratch) < len(p) {
		w.scratch = make([]byte, len(p))
	}
	want := w.scratch[:len(p)]
	for i := range want {
		want[i] = patternByte(w.pos + int64(i))
	}
	if !bytes.Equal(p, want) && w.bad.Load() == 0 {
		w.bad.Store(w.pos + 1)
	}
	w.pos += int64(len(p))
	return len(p), nil
}

// newFileBackedStore builds a store over file-backed nodes, the first
// cfg.N of them placed round-robin.
func newFileBackedStore(t *testing.T, nodeCount int, cfg Config) *Store {
	t.Helper()
	nodes := make([]core.NodeClient, nodeCount)
	base := t.TempDir()
	for j := range nodes {
		dir := filepath.Join(base, fmt.Sprintf("node%d", j))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		nodes[j] = nodeengine.New(newFileChunkStore(dir))
	}
	strat, err := placement.NewRoundRobin(cfg.N)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Placement = strat
	store, err := New(nodes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// peakHeapGrowth runs f while sampling HeapAlloc and returns how far
// the peak rose above the heap f started with.
func peakHeapGrowth(t *testing.T, f func()) int64 {
	t.Helper()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	baseline := ms.HeapAlloc
	var peak atomic.Uint64
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		ticker := time.NewTicker(5 * time.Millisecond)
		defer ticker.Stop()
		var m runtime.MemStats
		for {
			select {
			case <-stopSampler:
				return
			case <-ticker.C:
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > peak.Load() {
					peak.Store(m.HeapAlloc)
				}
			}
		}
	}()
	f()
	close(stopSampler)
	<-samplerDone
	growth := int64(peak.Load()) - int64(baseline)
	t.Logf("heap baseline %d KiB, peak growth %d KiB", baseline>>10, growth>>10)
	return growth
}

func TestStreamGiBObjectStaysStripeSized(t *testing.T) {
	if testing.Short() {
		t.Skip("1 GiB streaming round-trip: skipped with -short")
	}
	const size = 1 << 30 // 1 GiB = 512 stripes of 2 MiB payload
	store := newFileBackedStore(t, 15, Config{
		N: 15, K: 8,
		Shape: trapezoid.Shape{A: 2, B: 3, H: 1}, W: 3,
		BlockSize: 256 << 10,
	})
	ctx := context.Background()
	vw := &verifyWriter{}
	var written int64
	growth := peakHeapGrowth(t, func() {
		if err := store.PutReader(ctx, "big", &patternReader{n: size}, size); err != nil {
			t.Fatal(err)
		}
		var err error
		if written, err = store.GetWriter(ctx, "big", vw); err != nil {
			t.Fatal(err)
		}
	})
	if written != size {
		t.Fatalf("round-trip returned %d bytes, want %d", written, size)
	}
	if bad := vw.bad.Load(); bad != 0 {
		t.Fatalf("stream corrupt at byte %d", bad-1)
	}
	// O(stripe), not O(object): the stripe payload is 2 MiB and the
	// pipeline holds at most a window of stripes (four seeding, a fifth
	// being read) plus their parity and the protocol working set. 128 MiB of headroom absorbs GC slack and still sits
	// 8× below the object size — a buffered path would hold the full
	// GiB (and its encoded shards) live.
	const headroom = 128 << 20
	if growth > headroom {
		t.Fatalf("peak heap grew %d MiB during a 1 GiB stream, want < %d MiB (O(stripe))",
			growth>>20, headroom>>20)
	}
}

// TestMigrationStaysStripeSized: a recode moves an object through the
// same pipeline a Put does, so draining a 192 MiB object from (9,6)
// onto (12,8) — 128 source stripes of 1.5 MiB re-cut into 96 target
// stripes of 2 MiB — must not grow the heap with the object either.
func TestMigrationStaysStripeSized(t *testing.T) {
	if testing.Short() {
		t.Skip("192 MiB streamed recode: skipped with -short")
	}
	const size = 192 << 20
	store := newFileBackedStore(t, 12, Config{
		N: 9, K: 6,
		Shape: trapezoid.Shape{A: 2, B: 1, H: 1}, W: 2,
		BlockSize: 256 << 10,
	})
	ctx := context.Background()
	if err := store.PutReader(ctx, "big", &patternReader{n: size}, size); err != nil {
		t.Fatal(err)
	}
	roster := make([]int, 12)
	for i := range roster {
		roster[i] = i
	}
	growth := peakHeapGrowth(t, func() {
		err := store.Fleet().Reconfigure(ctx, ReconfigSpec{
			N: 12, K: 8,
			Shape: trapezoid.Shape{A: 1, B: 2, H: 1}, W: 2,
			Active: roster,
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	if st := store.Fleet().Migration(); st.Active || st.Retired != 1 {
		t.Fatalf("drain did not converge: %+v", st)
	}
	vw := &verifyWriter{}
	if written, err := store.GetWriter(ctx, "big", vw); err != nil || written != size {
		t.Fatalf("read-back after the recode: %d bytes, %v", written, err)
	}
	if bad := vw.bad.Load(); bad != 0 {
		t.Fatalf("object corrupt at byte %d after the recode", bad-1)
	}
	// 64 MiB of headroom over the stripe window (four target stripes
	// seeding, a fifth being read, two source stripes) is GC slack; an
	// object-sized buffer alone is three times that.
	const headroom = 64 << 20
	if growth > headroom {
		t.Fatalf("peak heap grew %d MiB recoding a 192 MiB object, want < %d MiB (O(stripe))",
			growth>>20, headroom>>20)
	}
}
