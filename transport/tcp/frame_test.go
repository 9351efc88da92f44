package tcp_test

import (
	"bytes"
	"context"
	"net"
	"testing"

	"trapquorum/client"
	"trapquorum/transport/tcp"
)

// Frames on both ends are pooled: a request frame is released once the
// server's handler returns, and the next frame of the same size reuses
// its buffer. These tests pin that the reuse never leaks one
// operation's bytes into another's, and that a bulk round trip
// allocates nothing but the result it hands back.

// bulkPattern is n bytes that differ with seed at every position.
func bulkPattern(n int, seed byte) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7) ^ seed
	}
	return p
}

// TestPooledFramesKeepBytesApart sends back-to-back mutations of equal
// size over one connection, so each later frame reuses the buffer the
// one before it was released into; every chunk must keep its own bytes.
func TestPooledFramesKeepBytesApart(t *testing.T) {
	cl, _, _ := startNode(t)
	ctx := context.Background()
	const size = 64 << 10
	a, b := client.ChunkID{Stripe: 1, Shard: 0}, client.ChunkID{Stripe: 2, Shard: 0}
	pa, pb := bulkPattern(size, 0x11), bulkPattern(size, 0x22)
	if err := cl.PutChunk(ctx, a, pa, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := cl.PutChunk(ctx, b, pb, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	check := func(what string, id client.ChunkID, want []byte) {
		t.Helper()
		got, err := cl.ReadChunk(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Data, want) {
			t.Fatalf("%s: chunk %v does not hold its own bytes", what, id)
		}
	}
	check("PutChunk", a, pa)
	check("PutChunk", b, pb)

	// Two zeroed parity chunks (k = 2 version slots), each patched by
	// its own delta, so each must end up holding exactly that delta: a
	// chunk that kept a reference into the request frame would hold
	// the other one.
	ca, cb := client.ChunkID{Stripe: 3, Shard: 2}, client.ChunkID{Stripe: 4, Shard: 2}
	for _, id := range []client.ChunkID{ca, cb} {
		if err := cl.PutChunk(ctx, id, make([]byte, size), []uint64{1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	da, db := bulkPattern(size, 0x33), bulkPattern(size, 0x44)
	if err := cl.CompareAndAdd(ctx, ca, 0, 1, 2, da); err != nil {
		t.Fatal(err)
	}
	if err := cl.CompareAndAdd(ctx, cb, 1, 1, 2, db); err != nil {
		t.Fatal(err)
	}
	check("CompareAndAdd", ca, da)
	check("CompareAndAdd", cb, db)
	// The callers' buffers are theirs again once the calls returned.
	if !bytes.Equal(da, bulkPattern(size, 0x33)) || !bytes.Equal(pa, bulkPattern(size, 0x11)) {
		t.Fatal("a request buffer changed under its caller")
	}
}

// sinkService is a node that stores one chunk in a buffer it reuses,
// so a round trip against it shows only what the transport allocates.
type sinkService struct {
	tcp.Service // nil: only the ops below are served
	data        []byte
	versions    []uint64
}

func (s *sinkService) PutChunk(ctx context.Context, id client.ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	s.data = append(s.data[:0], data...)
	s.versions = append(s.versions[:0], versions...)
	return nil
}

func (s *sinkService) ReadChunk(ctx context.Context, id client.ChunkID) (client.Chunk, error) {
	return client.Chunk{Data: s.data, Versions: s.versions}, nil
}

// startSink serves a sinkService on loopback through one pooled
// connection.
func startSink(tb testing.TB) *tcp.NodeClient {
	tb.Helper()
	srv := tcp.NewServer(&sinkService{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(ln)
	tb.Cleanup(func() { srv.Close() })
	cl := tcp.NewClient(ln.Addr().String(), tcp.WithMaxIdleConns(1))
	tb.Cleanup(func() { cl.Close() })
	return cl
}

// bulkRoundTrip is one 64 KiB PutChunk and the ReadChunk of it.
func bulkRoundTrip(tb testing.TB, cl *tcp.NodeClient, data []byte, versions []uint64) {
	ctx := context.Background()
	id := client.ChunkID{Stripe: 9, Shard: 0}
	if err := cl.PutChunk(ctx, id, data, versions); err != nil {
		tb.Fatal(err)
	}
	got, err := cl.ReadChunk(ctx, id)
	if err != nil {
		tb.Fatal(err)
	}
	if len(got.Data) != len(data) {
		tb.Fatalf("read %d bytes, want %d", len(got.Data), len(data))
	}
}

// TestBulkFrameAllocs: once the pools are warm, a loopback 64 KiB
// PutChunk + ReadChunk allocates only the ReadChunk result the caller
// owns — its data copy and its version vector — on either end of the
// connection. A frame buffer allocated per request shows up here as a
// 64 KiB allocation per frame.
func TestBulkFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the frame path")
	}
	cl := startSink(t)
	data, versions := bulkPattern(64<<10, 0x5a), []uint64{7}
	for range 64 {
		bulkRoundTrip(t, cl, data, versions)
	}
	allocs := testing.AllocsPerRun(200, func() { bulkRoundTrip(t, cl, data, versions) })
	// The result: data and versions. Everything else, the frames
	// included, comes from pools or the stack.
	const result = 2
	if allocs > result+0.5 {
		t.Fatalf("64 KiB PutChunk + ReadChunk allocates %.2f times, want at most %d (the ReadChunk result)", allocs, result)
	}
}

// BenchmarkBulkFrameRoundTrip is the 64 KiB PutChunk + ReadChunk round
// trip of TestBulkFrameAllocs; run it with -benchmem to see the frame
// path's allocations per operation.
func BenchmarkBulkFrameRoundTrip(b *testing.B) {
	cl := startSink(b)
	data, versions := bulkPattern(64<<10, 0x5a), []uint64{7}
	for range 64 {
		bulkRoundTrip(b, cl, data, versions)
	}
	b.SetBytes(2 * int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		bulkRoundTrip(b, cl, data, versions)
	}
}
