package gateway

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"trapquorum/client"
	"trapquorum/internal/core"
	"trapquorum/internal/gwire"
	"trapquorum/internal/memstore"
	"trapquorum/internal/nodeengine"
	"trapquorum/internal/service"
	"trapquorum/internal/trapezoid"
	"trapquorum/placement"
	"trapquorum/transport/tcp"
)

// The streaming plumbing: PutReader travels as a bracketed upload
// (start, ordered parts, finish), GetWriter as chunked ranged reads.
// An upload that dies — reader error, dropped connection, drain —
// must leave no partial object anywhere, exactly like the embedded
// store's streaming contract.

func wirePattern(n int) []byte {
	p := make([]byte, n)
	rng := rand.New(rand.NewSource(int64(n) + 41))
	rng.Read(p)
	return p
}

// TestStreamOverWire drives the full stack: client PutReader →
// gateway upload bracket → service streaming pipeline → sim cluster,
// and back out through GetWriter and the buffered Get.
func TestStreamOverWire(t *testing.T) {
	fleet := newTestFleet(t)
	_, l := startServer(t, FleetTenants{Fleet: fleet}, Config{Workers: 4})
	conn := dialTenant(t, l, "acme")
	ctx := context.Background()

	// 1300 bytes = several stripes of the (5,3)×64 test fleet.
	want := wirePattern(1300)
	if err := conn.PutReader(ctx, "vm.img", bytes.NewReader(want), len(want)); err != nil {
		t.Fatal(err)
	}
	if sz, err := conn.Size(ctx, "vm.img"); err != nil || sz != len(want) {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	var sink bytes.Buffer
	n, err := conn.GetWriter(ctx, "vm.img", &sink)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(want)) || !bytes.Equal(sink.Bytes(), want) {
		t.Fatalf("GetWriter returned %d bytes, mismatch=%v", n, !bytes.Equal(sink.Bytes(), want))
	}
	// The buffered read path serves the streamed object too.
	got, err := conn.Get(ctx, "vm.img")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Get of streamed object: %v", err)
	}
	// A second upload of the same key is refused like a buffered Put.
	if err := conn.PutReader(ctx, "vm.img", bytes.NewReader(want), len(want)); !errors.Is(err, service.ErrExists) {
		t.Fatalf("double stream err = %v", err)
	}
	// An empty object streams too.
	if err := conn.PutReader(ctx, "empty", bytes.NewReader(nil), 0); err != nil {
		t.Fatal(err)
	}
	sink.Reset()
	if n, err := conn.GetWriter(ctx, "empty", &sink); err != nil || n != 0 {
		t.Fatalf("empty GetWriter = %d, %v", n, err)
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

// TestStreamMidStreamErrorUnwinds: a client-side reader failure aborts
// the upload; the gateway unwinds and the key is immediately free.
func TestStreamMidStreamErrorUnwinds(t *testing.T) {
	fleet := newTestFleet(t)
	_, l := startServer(t, FleetTenants{Fleet: fleet}, Config{Workers: 4})
	conn := dialTenant(t, l, "acme")
	ctx := context.Background()

	boom := errors.New("local disk on fire")
	err := conn.PutReader(ctx, "doomed", &errAfterReader{n: 700, err: boom}, 2000)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := conn.Size(ctx, "doomed"); !errors.Is(err, service.ErrUnknownKey) {
		t.Fatalf("partial object visible: %v", err)
	}
	// The abort is acknowledged only after the backend unwound, so the
	// key is free for an immediate retry on the same connection.
	want := wirePattern(2000)
	if err := conn.PutReader(ctx, "doomed", bytes.NewReader(want), len(want)); err != nil {
		t.Fatalf("retry after unwind: %v", err)
	}
	got, err := conn.Get(ctx, "doomed")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("retry content: %v", err)
	}
}

// TestStreamQuotaOverWire: the backend's quota rejection surfaces
// through the upload bracket as trapquorum.ErrQuotaExceeded.
func TestStreamQuotaOverWire(t *testing.T) {
	fleet := newTestFleet(t)
	_, l := startServer(t, FleetTenants{Fleet: fleet, Quota: service.Quota{MaxBytes: 1000}}, Config{Workers: 2})
	conn := dialTenant(t, l, "capped")
	ctx := context.Background()
	err := conn.PutReader(ctx, "big", bytes.NewReader(make([]byte, 2000)), 2000)
	if !errors.Is(err, client.ErrQuotaExceeded) {
		t.Fatalf("err = %v, want ErrQuotaExceeded", err)
	}
}

// captureStore records what its PutReader consumed — the tool for
// watching the part stream arrive in order without quorum cost.
type captureStore struct {
	nullStore
	mu   sync.Mutex
	got  []byte
	errc error
}

func (c *captureStore) PutReader(_ context.Context, _ string, r io.Reader, size int) error {
	buf := make([]byte, size)
	_, err := io.ReadFull(r, buf)
	c.mu.Lock()
	c.got = buf
	c.errc = err
	c.mu.Unlock()
	return err
}

// TestStreamMultiPart: an object larger than the client's part size
// travels as several ordered parts and reassembles exactly.
func TestStreamMultiPart(t *testing.T) {
	cs := &captureStore{}
	_, l := startServer(t, staticTenants{cs}, Config{Workers: 4})
	conn := dialTenant(t, l, "t")
	ctx := context.Background()

	// 2.5 MiB = three parts at the client's 1 MiB part size.
	want := wirePattern(2<<20 + 512<<10)
	if err := conn.PutReader(ctx, "big", bytes.NewReader(want), len(want)); err != nil {
		t.Fatal(err)
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.errc != nil {
		t.Fatalf("backend read: %v", cs.errc)
	}
	if !bytes.Equal(cs.got, want) {
		t.Fatal("multi-part reassembly mismatch")
	}
}

// TestStreamProtocolGuards drives the upload bracket raw: parts
// without a start, double starts, out-of-order parts and oversized
// parts are refused with precise statuses instead of corrupting the
// stream.
func TestStreamProtocolGuards(t *testing.T) {
	cs := &captureStore{}
	_, l := startServer(t, staticTenants{cs}, Config{Workers: 4})
	rc := newRawConn(t, l, "t")

	status := func(req *gwire.Request) gwire.Status {
		t.Helper()
		resp, err := rc.roundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Status
	}

	if s := status(&gwire.Request{Op: gwire.OpPutPart, Data: []byte("x")}); s != gwire.StatusBadRequest {
		t.Fatalf("part without start: status %d", s)
	}
	if s := status(&gwire.Request{Op: gwire.OpPutFinish}); s != gwire.StatusBadRequest {
		t.Fatalf("finish without start: status %d", s)
	}
	if s := status(&gwire.Request{Op: gwire.OpPutAbort}); s != gwire.StatusBadRequest {
		t.Fatalf("abort without start: status %d", s)
	}
	if s := status(&gwire.Request{Op: gwire.OpPutStart, Key: []byte("k"), Length: -1}); s != gwire.StatusBadRange {
		t.Fatalf("negative size: status %d", s)
	}
	if s := status(&gwire.Request{Op: gwire.OpPutStart, Key: []byte("k"), Length: 10}); s != gwire.StatusOK {
		t.Fatalf("start: status %d", s)
	}
	if s := status(&gwire.Request{Op: gwire.OpPutStart, Key: []byte("k2"), Length: 10}); s != gwire.StatusBadRequest {
		t.Fatalf("second start: status %d", s)
	}
	if s := status(&gwire.Request{Op: gwire.OpPutPart, Offset: 4, Data: []byte("late")}); s != gwire.StatusBadRequest {
		t.Fatalf("out-of-order part: status %d", s)
	}
	if s := status(&gwire.Request{Op: gwire.OpPutPart, Offset: 0, Data: []byte("0123456789ab")}); s != gwire.StatusBadRange {
		t.Fatalf("oversized part: status %d", s)
	}
	if s := status(&gwire.Request{Op: gwire.OpPutPart, Offset: 0, Data: []byte("0123456789")}); s != gwire.StatusOK {
		t.Fatalf("part: status %d", s)
	}
	if s := status(&gwire.Request{Op: gwire.OpPutFinish}); s != gwire.StatusOK {
		t.Fatalf("finish: status %d", s)
	}
	cs.mu.Lock()
	got := string(cs.got)
	cs.mu.Unlock()
	if got != "0123456789" {
		t.Fatalf("backend received %q", got)
	}
}

// TestStreamDroppedConnUnwinds: a connection dying mid-upload tears
// the upload down server-side; the key becomes free for another
// connection.
func TestStreamDroppedConnUnwinds(t *testing.T) {
	fleet := newTestFleet(t)
	_, l := startServer(t, FleetTenants{Fleet: fleet}, Config{Workers: 4})
	ctx := context.Background()

	rc := newRawConn(t, l, "acme")
	if resp, err := rc.roundTrip(&gwire.Request{Op: gwire.OpPutStart, Key: []byte("orphan"), Length: 2000}); err != nil || resp.Status != gwire.StatusOK {
		t.Fatalf("start: %v (status %d)", err, resp.Status)
	}
	if resp, err := rc.roundTrip(&gwire.Request{Op: gwire.OpPutPart, Offset: 0, Data: wirePattern(600)}); err != nil || resp.Status != gwire.StatusOK {
		t.Fatalf("part: %v (status %d)", err, resp.Status)
	}
	rc.nc.Close()

	// Teardown is asynchronous (the reader goroutine notices the dead
	// connection); poll until the reservation is released.
	conn := dialTenant(t, l, "acme")
	want := wirePattern(2000)
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := conn.PutReader(ctx, "orphan", bytes.NewReader(want), len(want))
		if err == nil {
			break
		}
		if !errors.Is(err, service.ErrExists) || time.Now().After(deadline) {
			t.Fatalf("PutReader after dropped upload: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, err := conn.Get(ctx, "orphan")
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("content after re-upload: %v", err)
	}
}

// stallStore never consumes the upload stream until the pipe dies —
// the tool for wedging a part in the pipe.
type stallStore struct {
	nullStore
	entered chan struct{}
}

func (s *stallStore) PutReader(_ context.Context, _ string, r io.Reader, size int) error {
	close(s.entered)
	// Never consume a byte: a zero-length read of an io.Pipe observes
	// its state (blocking until a write or a close arrives) without
	// draining the blocked part, so the part stays wedged until the
	// drain aborts the upload and the teardown error lands here.
	for {
		if _, err := r.Read(nil); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainAbortsUploads: Drain must not wait out a part blocked in a
// stalled upload pipe — it aborts the upload, the part is answered
// with the drain verdict, and Drain completes within its context.
func TestDrainAbortsUploads(t *testing.T) {
	ss := &stallStore{entered: make(chan struct{})}
	srv, l := startServer(t, staticTenants{ss}, Config{Workers: 2})
	rc := newRawConn(t, l, "t")

	if resp, err := rc.roundTrip(&gwire.Request{Op: gwire.OpPutStart, Key: []byte("k"), Length: 1 << 20}); err != nil || resp.Status != gwire.StatusOK {
		t.Fatalf("start: %v (status %d)", err, resp.Status)
	}
	// The part blocks in the pipe (the stalled backend consumed one
	// byte); send it and collect the response concurrently.
	partResp := make(chan gwire.Status, 1)
	go func() {
		resp, err := rc.roundTrip(&gwire.Request{Op: gwire.OpPutPart, Offset: 0, Data: make([]byte, 4096)})
		if err != nil {
			partResp <- gwire.StatusInternal
			return
		}
		partResp <- resp.Status
	}()
	<-ss.entered
	// Wait until the part is truly wedged: it reached a worker and has
	// not been answered.
	time.Sleep(50 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain did not complete: %v", err)
	}
	select {
	case s := <-partResp:
		if s != gwire.StatusDraining {
			t.Fatalf("wedged part answered with status %d, want StatusDraining", s)
		}
	case <-time.After(time.Second):
		t.Fatal("wedged part never answered")
	}
}

// TestBulkStreamOverPooledFrames moves a multi-MiB object through every
// pooled frame on the data path: 1 MiB upload parts and ReadAt answers
// at the gateway, 64 KiB-block PutChunk and ReadChunk frames on real
// TCP links to the nodes, stripes seeded a window at a time. Two
// objects of the same size travel in turn, so every frame of the second
// reuses a buffer the first released; each must read back as itself.
func TestBulkStreamOverPooledFrames(t *testing.T) {
	const n = 5
	nodes := make([]core.NodeClient, n)
	for j := range nodes {
		engine := nodeengine.New(memstore.New())
		t.Cleanup(func() { engine.Close() })
		srv := tcp.NewServer(engine)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		cl := tcp.NewClient(ln.Addr().String())
		t.Cleanup(func() { cl.Close() })
		nodes[j] = cl
	}
	strat, err := placement.NewRoundRobin(n)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := service.NewFleet(nodes, service.Config{
		N: n, K: 3,
		Shape: trapezoid.Shape{A: 0, B: 3, H: 0}, W: 2,
		BlockSize: 64 << 10,
		Placement: strat,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, l := startServer(t, FleetTenants{Fleet: fleet}, Config{Workers: 4})
	conn := dialTenant(t, l, "bulk")
	ctx := context.Background()

	// 3 MiB and a ragged tail: 17 stripes of 192 KiB, the last short.
	const size = 3<<20 + 12345
	objects := map[string][]byte{"first": wirePattern(size), "second": bytes.Repeat([]byte{0x5a}, size)}
	for _, key := range []string{"first", "second"} {
		if err := conn.PutReader(ctx, key, bytes.NewReader(objects[key]), size); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range []string{"first", "second"} {
		var sink bytes.Buffer
		got, err := conn.GetWriter(ctx, key, &sink)
		if err != nil {
			t.Fatal(err)
		}
		if got != size || !bytes.Equal(sink.Bytes(), objects[key]) {
			t.Fatalf("%s: GetWriter returned %d bytes, mismatch=%v", key, got, !bytes.Equal(sink.Bytes(), objects[key]))
		}
	}
}
