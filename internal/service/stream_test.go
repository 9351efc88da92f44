package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"trapquorum/client"
	"trapquorum/internal/sim"
)

// Streaming IO must agree byte-for-byte with the buffered API on every
// stripe-boundary shape, and a failed stream must leave nothing behind:
// no directory entry, no reserved key, no orphaned chunks on any node.

// streamSizes covers the boundary shapes: empty, sub-block, exact
// block, exact stripe (8×64 = 512 here), one byte either side of the
// stripe boundary, multi-stripe with a short final stripe, and
// multi-stripe with an exactly-full final stripe.
var streamSizes = []int{0, 1, 63, 64, 511, 512, 513, 1024, 1300, 2048}

func streamPattern(n int) []byte {
	p := make([]byte, n)
	rng := rand.New(rand.NewSource(int64(n) + 7))
	rng.Read(p)
	return p
}

// stripeResidue counts chunks left anywhere in the cluster for stripe
// ids in [lo, hi) — the orphan check after a failed stream.
func stripeResidue(t *testing.T, cluster *sim.Cluster, n int, lo, hi uint64) int {
	t.Helper()
	ctx := context.Background()
	residue := 0
	for stripe := lo; stripe < hi; stripe++ {
		for shard := 0; shard < n; shard++ {
			for j := 0; j < cluster.Size(); j++ {
				ok, err := cluster.Node(j).HasChunk(ctx, client.ChunkID{Stripe: stripe, Shard: shard})
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					residue++
				}
			}
		}
	}
	return residue
}

func TestPutReaderGetWriterRoundTrip(t *testing.T) {
	store, _ := newTestStore(t)
	ctx := context.Background()
	for _, size := range streamSizes {
		key := fmt.Sprintf("obj-%d", size)
		want := streamPattern(size)
		if err := store.PutReader(ctx, key, bytes.NewReader(want), size); err != nil {
			t.Fatalf("PutReader(%d): %v", size, err)
		}
		var sink bytes.Buffer
		n, err := store.GetWriter(ctx, key, &sink)
		if err != nil {
			t.Fatalf("GetWriter(%d): %v", size, err)
		}
		if n != int64(size) || !bytes.Equal(sink.Bytes(), want) {
			t.Fatalf("GetWriter(%d) returned %d bytes, mismatch=%v", size, n, !bytes.Equal(sink.Bytes(), want))
		}
		// The buffered read path must serve the streamed object too.
		got, err := store.Get(ctx, key)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Get of streamed object (%d): %v, mismatch=%v", size, err, !bytes.Equal(got, want))
		}
		if sz, _ := store.Size(key); sz != size {
			t.Fatalf("Size(%q) = %d", key, sz)
		}
	}
	// And GetWriter must serve a buffered Put.
	want := streamPattern(777)
	if err := store.Put(ctx, "buffered", want); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if _, err := store.GetWriter(ctx, "buffered", &sink); err != nil || !bytes.Equal(sink.Bytes(), want) {
		t.Fatalf("GetWriter of buffered object: %v", err)
	}
}

// TestPutMatchesPutReader: Put is PutReader over a buffer the caller
// holds, so the same bytes through either — on every boundary shape,
// the empty object and exact stripe multiples included — give the same
// object (size, stripe count, bytes through Get and ReadAt), charge the
// same quota, are refused by it at the same point, and move the
// tenant's counters identically.
func TestPutMatchesPutReader(t *testing.T) {
	store, _ := newTestStore(t)
	ctx := context.Background()
	// The sizes sum to 6036 bytes: the byte quota refuses the last one.
	quota := Quota{MaxObjects: int64(len(streamSizes)), MaxBytes: 5000}
	buffered, err := store.Fleet().Tenant("buffered", quota)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := store.Fleet().Tenant("streamed", quota)
	if err != nil {
		t.Fatal(err)
	}
	refused := 0
	for _, size := range streamSizes {
		key := fmt.Sprintf("obj-%d", size)
		want := streamPattern(size)
		errB := buffered.Put(ctx, key, want)
		errS := streamed.PutReader(ctx, key, bytes.NewReader(want), size)
		if errors.Is(errB, client.ErrQuotaExceeded) != errors.Is(errS, client.ErrQuotaExceeded) ||
			(errB == nil) != (errS == nil) {
			t.Fatalf("size %d: Put err = %v, PutReader err = %v", size, errB, errS)
		}
		if errB != nil {
			refused++
			continue
		}
		for _, s := range []*Store{buffered, streamed} {
			if sz, err := s.Size(key); err != nil || sz != size {
				t.Fatalf("%s: Size(%d) = %d, %v", s.Tenant(), size, sz, err)
			}
			if got, err := s.Get(ctx, key); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: Get(%d): %v, mismatch=%v", s.Tenant(), size, err, !bytes.Equal(got, want))
			}
			off, length := size/3, size-size/3
			if got, err := s.ReadAt(ctx, key, off, length); err != nil || !bytes.Equal(got, want[off:]) {
				t.Fatalf("%s: ReadAt(%d): %v", s.Tenant(), size, err)
			}
		}
		stripesB, _ := buffered.StripesOf(key)
		stripesS, _ := streamed.StripesOf(key)
		if len(stripesB) != len(stripesS) {
			t.Fatalf("size %d: %d stripes buffered, %d streamed", size, len(stripesB), len(stripesS))
		}
		if mb, ms := buffered.TenantMetrics(), streamed.TenantMetrics(); mb != ms {
			t.Fatalf("size %d: tenant metrics diverge:\nbuffered %+v\nstreamed %+v", size, mb, ms)
		}
	}
	if mb, ms := buffered.TenantMetrics(), streamed.TenantMetrics(); mb != ms || mb.QuotaRejections != int64(refused) || refused == 0 {
		t.Fatalf("after %d refusals: buffered %+v, streamed %+v", refused, mb, ms)
	}
}

// TestStreamedObjectRandomAccess: ReadAt and WriteAt spanning stripe
// boundaries of a PutReader-created object behave exactly as on a
// buffered one.
func TestStreamedObjectRandomAccess(t *testing.T) {
	store, _ := newTestStore(t)
	ctx := context.Background()
	const size = 1300 // 2 full stripes (512 each) + short final stripe
	want := streamPattern(size)
	if err := store.PutReader(ctx, "obj", bytes.NewReader(want), size); err != nil {
		t.Fatal(err)
	}
	// Read across the first stripe boundary and across the last.
	for _, span := range [][2]int{{500, 30}, {1000, 60}, {0, size}, {511, 2}, {1023, 2}} {
		got, err := store.ReadAt(ctx, "obj", span[0], span[1])
		if err != nil {
			t.Fatalf("ReadAt(%v): %v", span, err)
		}
		if !bytes.Equal(got, want[span[0]:span[0]+span[1]]) {
			t.Fatalf("ReadAt(%v) diverges from source", span)
		}
	}
	// Write across a stripe boundary, then verify through both read
	// paths.
	patch := streamPattern(100)[:40]
	copy(want[495:], patch)
	if err := store.WriteAt(ctx, "obj", 495, patch); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get(ctx, "obj")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get after boundary WriteAt: %v, mismatch=%v", err, !bytes.Equal(got, want))
	}
	var sink bytes.Buffer
	if _, err := store.GetWriter(ctx, "obj", &sink); err != nil || !bytes.Equal(sink.Bytes(), want) {
		t.Fatalf("GetWriter after boundary WriteAt: %v", err)
	}
}

func TestPutReaderExistingKey(t *testing.T) {
	store, _ := newTestStore(t)
	ctx := context.Background()
	if err := store.Put(ctx, "a", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := store.PutReader(ctx, "a", bytes.NewReader([]byte{2}), 1); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v", err)
	}
	if err := store.PutReader(ctx, "b", bytes.NewReader([]byte{2}), 1); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(ctx, "b", []byte{3}); !errors.Is(err, ErrExists) {
		t.Fatalf("Put over streamed key: err = %v", err)
	}
}

// errAfterReader yields n good bytes, then fails.
type errAfterReader struct {
	n   int
	err error
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, r.err
	}
	if len(p) > r.n {
		p = p[:r.n]
	}
	for i := range p {
		p[i] = byte(i)
	}
	r.n -= len(p)
	return len(p), nil
}

// TestPutReaderMidStreamError: a reader failing after some stripes are
// already seeded unwinds everything — no directory entry, no chunk on
// any node, and the key immediately reusable.
func TestPutReaderMidStreamError(t *testing.T) {
	store, cluster := newTestStore(t)
	ctx := context.Background()
	lo := store.fleet.cat.nextStripe

	boom := errors.New("disk on fire")
	// 2000 bytes declared, reader dies at 1100 — stripe 0 (512) and
	// stripe 1 (1024) have been seeded or are in flight, stripe 2 fails
	// mid-read.
	err := store.PutReader(ctx, "doomed", &errAfterReader{n: 1100, err: boom}, 2000)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := store.Size("doomed"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("partial object visible: %v", err)
	}
	if n := stripeResidue(t, cluster, store.fleet.cfg.N, lo, store.fleet.cat.nextStripe); n != 0 {
		t.Fatalf("leaked %d chunks after failed stream", n)
	}
	// Short reads (declared size never delivered) unwind the same way.
	lo = store.fleet.cat.nextStripe
	if err := store.PutReader(ctx, "doomed", bytes.NewReader(make([]byte, 600)), 2000); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short read err = %v", err)
	}
	if n := stripeResidue(t, cluster, store.fleet.cfg.N, lo, store.fleet.cat.nextStripe); n != 0 {
		t.Fatalf("leaked %d chunks after short read", n)
	}
	// The key is free for an immediate retry.
	want := streamPattern(2000)
	if err := store.PutReader(ctx, "doomed", bytes.NewReader(want), 2000); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get(ctx, "doomed")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("retry after unwind: %v", err)
	}
}

// failingWriter accepts n bytes then fails.
type failingWriter struct {
	n   int
	err error
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) <= w.n {
		w.n -= len(p)
		return len(p), nil
	}
	n := w.n
	w.n = 0
	return n, w.err
}

func TestGetWriterSinkError(t *testing.T) {
	store, _ := newTestStore(t)
	ctx := context.Background()
	want := streamPattern(1300)
	if err := store.Put(ctx, "obj", want); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sink full")
	n, err := store.GetWriter(ctx, "obj", &failingWriter{n: 700, err: boom})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n != 700 {
		t.Fatalf("wrote %d bytes before sink error, want 700", n)
	}
}

func TestPutReaderQuota(t *testing.T) {
	store, _ := newTestStore(t)
	tenant, err := store.Fleet().Tenant("small", Quota{MaxBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := tenant.PutReader(ctx, "big", bytes.NewReader(make([]byte, 2000)), 2000); !errors.Is(err, client.ErrQuotaExceeded) {
		t.Fatalf("quota err = %v", err)
	}
}
