// Package gateway is the connection tier in front of a storage fleet:
// one process accepting thousands of persistent client connections
// and multiplexing their object operations onto a shared
// service.Fleet. It exists because the quorum protocol's natural
// clients are few and fat (hypervisors, virtualization middleware)
// while real deployments are many and thin — a fleet of n storage
// nodes should not see n×clients TCP connections, and clients should
// not each need the placement tables and protocol engine in process.
//
// # Design
//
// Each accepted connection gets one reader goroutine and no writer
// goroutine: responses are written directly by whichever worker
// finished the request, serialised by a per-session write mutex. All
// sessions share one bounded worker pool; a request that finds the
// pool's queue full — or its own connection over the per-connection
// in-flight window — is refused immediately with StatusOverloaded
// instead of queueing without bound. That makes overload explicit
// backpressure the client can act on (back off, spread load) rather
// than silent latency growth.
//
// Frame buffers are pooled and responses are encoded straight into
// the outgoing buffer (object bytes appended in place via the
// service layer's append-style reads), so the steady-state serve
// path allocates nothing per request.
//
// Objects too large for one request frame stream through an upload
// bracket (OpPutStart, ordered OpPutPart frames, OpPutFinish): parts
// are piped into the service layer's PutReader, which encodes and
// seeds stripes while later parts are still arriving. A part write
// blocks until the pipeline consumes it — backpressure that keeps
// gateway memory at O(part) per upload however large the object — and
// the object stays invisible until the finish; an abort, a dropped
// connection or a drain unwinds every stripe already placed.
// Downloads stream as chunked ranged reads (OpStat + OpReadAt), which
// need no server-side state at all.
//
// Connections bind to a tenant namespace with a Hello handshake;
// tenants are isolated namespaces with quotas on one shared fleet
// (see service.Fleet). Watch subscriptions receive object-change
// events for their tenant, delivered best-effort through a small
// per-watcher buffer — a slow watcher drops events rather than
// stalling the data path.
//
// Shutdown is graceful: Drain stops accepting, tells every watcher
// (EventDrain), refuses new requests with StatusDraining, and waits
// for in-flight requests to finish before closing connections.
package gateway

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"trapquorum/internal/blockpool"
	"trapquorum/internal/clock"
	"trapquorum/internal/gwire"
	"trapquorum/internal/service"
)

// TenantStore is the per-tenant backend surface the gateway serves.
// *service.Store provides everything but the scrub summary; see
// FleetTenants for the adapter.
type TenantStore interface {
	Put(ctx context.Context, key string, data []byte) error
	// PutReader is the streaming form of Put: size bytes arrive through
	// r, and a failure (short read, reader error, node failure) must
	// leave no partial object behind.
	PutReader(ctx context.Context, key string, r io.Reader, size int) error
	GetAppend(ctx context.Context, key string, dst []byte) ([]byte, error)
	ReadAtAppend(ctx context.Context, key string, offset, length int, dst []byte) ([]byte, error)
	WriteAt(ctx context.Context, key string, offset int, data []byte) error
	Delete(ctx context.Context, key string) error
	// Size reports the object's byte size.
	Size(key string) (int, error)
	// ScrubSummary audits the object and returns a one-line report.
	ScrubSummary(ctx context.Context, key string) (string, error)
}

// TenantProvider resolves a tenant name (from the Hello handshake) to
// its backend store.
type TenantProvider interface {
	Tenant(name string) (TenantStore, error)
}

// FleetTenants adapts a service.Fleet to the TenantProvider surface:
// every tenant that says Hello gets a namespace on the fleet, created
// on first use with the configured quota.
type FleetTenants struct {
	Fleet *service.Fleet
	// Quota caps each newly created tenant namespace (zero fields are
	// unlimited). Tenants created earlier keep their creation-time
	// quota.
	Quota service.Quota
}

// Tenant implements TenantProvider.
func (f FleetTenants) Tenant(name string) (TenantStore, error) {
	s, err := f.Fleet.Tenant(name, f.Quota)
	if err != nil {
		return nil, err
	}
	return fleetStore{s}, nil
}

// fleetStore adds the scrub summary to a service.Store.
type fleetStore struct{ *service.Store }

func (s fleetStore) ScrubSummary(ctx context.Context, key string) (string, error) {
	reports, err := s.Store.Scrub(ctx, key)
	if err != nil {
		return "", err
	}
	stale, ahead, unreachable, corrupt, mismatched := 0, 0, 0, 0, 0
	for _, r := range reports {
		stale += len(r.StaleShards)
		ahead += len(r.AheadShards)
		unreachable += len(r.UnreachableShards)
		corrupt += len(r.CorruptShards)
		if r.ParityMismatch {
			mismatched++
		}
	}
	return fmt.Sprintf("stripes=%d stale=%d ahead=%d unreachable=%d corrupt=%d parity-mismatched=%d",
		len(reports), stale, ahead, unreachable, corrupt, mismatched), nil
}

// Config parameterises a gateway server. The zero value of each field
// selects the default.
type Config struct {
	// Workers is the size of the shared worker pool executing requests
	// (default 64).
	Workers int
	// QueueDepth bounds the worker pool's request queue; a submit that
	// finds it full is refused with StatusOverloaded (default
	// 4×Workers).
	QueueDepth int
	// MaxInflight bounds one connection's outstanding requests; the
	// excess is refused with StatusOverloaded (default 32).
	MaxInflight int
	// MaxFrame bounds a request frame's payload, enforced before
	// allocation (default gwire.DefaultMaxFrame).
	MaxFrame int
	// WatchBuffer bounds each watcher's event buffer; a full buffer
	// drops events rather than stalling writers (default 64).
	WatchBuffer int
	// WriteTimeout bounds each response write. Responses are written by
	// shared pool workers, so a client that stops reading (full TCP
	// send buffer) would otherwise pin a worker indefinitely; on
	// timeout the connection is closed and the session torn down
	// (default 10s).
	WriteTimeout time.Duration
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 32
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = gwire.DefaultMaxFrame
	}
	if c.WatchBuffer <= 0 {
		c.WatchBuffer = 64
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	// Accepted counts connections accepted over the server's lifetime;
	// Active is the number currently open.
	Accepted, Active int64
	// Requests counts requests that reached a worker; Overloads counts
	// requests refused by backpressure (queue or in-flight window).
	Requests, Overloads int64
	// EventsDropped counts watch events discarded because a watcher's
	// buffer was full.
	EventsDropped int64
}

// task is one request handed to the worker pool. Its pooled frame
// travels with it (req's Key and Data alias frame.B) and is released
// when the worker is done.
type task struct {
	s     *session
	frame *blockpool.Block
	req   gwire.Request
}

// Server is one gateway process: an accept loop, a shared worker
// pool, and the session/watcher registries.
type Server struct {
	tenants TenantProvider
	cfg     Config

	ctx    context.Context
	cancel context.CancelFunc

	tasks    chan task
	draining atomic.Bool
	inflight atomic.Int64 // requests handed to the pool, not yet answered

	accepted      atomic.Int64
	requests      atomic.Int64
	overloads     atomic.Int64
	eventsDropped atomic.Int64

	workers sync.WaitGroup

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	sessions  map[*session]struct{}
	watchers  map[string]map[*session]struct{} // tenant -> watching sessions
}

// NewServer builds a gateway over the given tenant backends.
func NewServer(tenants TenantProvider, cfg Config) *Server {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	srv := &Server{
		tenants:   tenants,
		cfg:       cfg,
		ctx:       ctx,
		cancel:    cancel,
		tasks:     make(chan task, cfg.QueueDepth),
		listeners: make(map[net.Listener]struct{}),
		sessions:  make(map[*session]struct{}),
		watchers:  make(map[string]map[*session]struct{}),
	}
	srv.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go srv.worker()
	}
	return srv
}

// Stats snapshots the server's counters.
func (srv *Server) Stats() Stats {
	srv.mu.Lock()
	active := int64(len(srv.sessions))
	srv.mu.Unlock()
	return Stats{
		Accepted:      srv.accepted.Load(),
		Active:        active,
		Requests:      srv.requests.Load(),
		Overloads:     srv.overloads.Load(),
		EventsDropped: srv.eventsDropped.Load(),
	}
}

// Serve accepts connections on l until the listener is closed (by
// Drain or Close). It returns nil on a drain/close shutdown.
func (srv *Server) Serve(l net.Listener) error {
	if srv.draining.Load() {
		l.Close()
		return gwire.ErrDraining
	}
	srv.mu.Lock()
	srv.listeners[l] = struct{}{}
	srv.mu.Unlock()
	defer func() {
		srv.mu.Lock()
		delete(srv.listeners, l)
		srv.mu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			if srv.draining.Load() {
				return nil
			}
			return err
		}
		srv.accepted.Add(1)
		s := &session{srv: srv, conn: conn}
		srv.mu.Lock()
		if srv.draining.Load() {
			srv.mu.Unlock()
			conn.Close()
			continue
		}
		srv.sessions[s] = struct{}{}
		srv.mu.Unlock()
		go s.readLoop()
	}
}

// Drain shuts the gateway down gracefully: stop accepting, notify
// watchers (EventDrain), refuse new requests with StatusDraining,
// wait for in-flight requests to complete, then close connections.
// The context bounds the wait; on expiry remaining connections are
// closed anyway and the context's error is returned.
func (srv *Server) Drain(ctx context.Context) error {
	if !srv.draining.CompareAndSwap(false, true) {
		return nil
	}
	srv.mu.Lock()
	for l := range srv.listeners {
		l.Close()
	}
	// Tell every watcher goodbye before the data path stops.
	var targets []*session
	for _, subs := range srv.watchers {
		for s := range subs {
			targets = append(targets, s)
		}
	}
	sessions := make([]*session, 0, len(srv.sessions))
	for s := range srv.sessions {
		sessions = append(sessions, s)
	}
	srv.mu.Unlock()
	for _, s := range targets {
		s.enqueueEvent(gwire.EventDrain, "")
	}
	// Abort in-progress streaming uploads: a part blocked in the pipe
	// is pinning a pool worker and counted in-flight, and no further
	// parts will be admitted past the drain flag — without this the
	// in-flight poll below could only time out. The blocked part (and
	// the upload's client) observes StatusDraining.
	for _, s := range sessions {
		s.abortUpload(gwire.ErrDraining)
	}

	// Readers increment the in-flight count before they check the
	// drain flag (and decrement again on refusal), so once this poll
	// observes zero no request can still be headed for the queue: a
	// reader the poll missed has not incremented yet and will see the
	// flag, set above, and refuse. Polling avoids the Add-vs-Wait race
	// a WaitGroup would have against the admission fast path; drain is
	// not a hot path.
	var err error
	for err == nil && srv.inflight.Load() > 0 {
		err = clock.Sleep(ctx, clock.Real{}, time.Millisecond)
	}
	srv.shutdown()
	return err
}

// Close shuts the gateway down immediately: listeners and connections
// are closed with no grace for in-flight requests.
func (srv *Server) Close() {
	srv.draining.Store(true)
	srv.mu.Lock()
	for l := range srv.listeners {
		l.Close()
	}
	srv.mu.Unlock()
	srv.shutdown()
}

// shutdown closes every session and stops the worker pool. Watcher
// notifiers get a bounded grace to flush queued events (the drain
// notice in particular) before their connections are cut.
func (srv *Server) shutdown() {
	srv.cancel()
	srv.mu.Lock()
	sessions := make([]*session, 0, len(srv.sessions))
	for s := range srv.sessions {
		sessions = append(sessions, s)
	}
	srv.mu.Unlock()
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(s *session) {
			defer wg.Done()
			s.stopNotifier()
			s.waitNotifier(time.Second)
			s.conn.Close()
		}(s)
	}
	wg.Wait()
	srv.workers.Wait()
}

// worker executes pool tasks until shutdown.
func (srv *Server) worker() {
	defer srv.workers.Done()
	for {
		select {
		case t := <-srv.tasks:
			t.s.handle(&t.req)
			t.frame.Release()
			t.s.inflight.Add(-1)
			srv.inflight.Add(-1)
		case <-srv.ctx.Done():
			return
		}
	}
}

// Frames are pooled (internal/blockpool): a request frame is taken for
// one read and released once its request is answered, a response frame
// once it is written. No buffer outlives its frame, so an idle session
// holds no frame memory, and a 1 MiB part or ReadAt answer costs a pool
// round trip, not an allocation.

// respHeaderLen is a response frame's length prefix plus the fixed part
// of the header gwire.BeginResponse writes: seq, status, flag, detail
// length and data length.
const respHeaderLen = 4 + 8 + 1 + 1 + 2 + 4

// beginResponse takes a pooled buffer sized for a response frame
// carrying data bytes, reserves the frame's length prefix (send
// patches it in) and writes the response header after it. It returns
// the buffer, the frame so far, and the data-length offset for
// gwire.FinishResponse.
func beginResponse(data int, seq uint64, status gwire.Status, flag bool, detail string) (*blockpool.Block, []byte, int) {
	blk := blockpool.GetBlock(respHeaderLen + len(detail) + data)
	body, dlenOff := gwire.BeginResponse(append(blk.B[:0], 0, 0, 0, 0), seq, status, flag, detail)
	return blk, body, dlenOff
}

// registerWatch subscribes a session to its tenant's object-change
// events. The latest Watch request's seq wins when a session
// subscribes twice.
func (srv *Server) registerWatch(s *session, seq uint64) {
	s.watchSeq.Store(seq)
	s.startNotifier()
	srv.mu.Lock()
	subs := srv.watchers[s.tenant]
	if subs == nil {
		subs = make(map[*session]struct{})
		srv.watchers[s.tenant] = subs
	}
	subs[s] = struct{}{}
	srv.mu.Unlock()
}

// unregister removes a closed session from the registries.
func (srv *Server) unregister(s *session) {
	srv.mu.Lock()
	delete(srv.sessions, s)
	if subs, ok := srv.watchers[s.tenant]; ok {
		delete(subs, s)
		if len(subs) == 0 {
			delete(srv.watchers, s.tenant)
		}
	}
	srv.mu.Unlock()
}

// notify fans an object-change event out to the tenant's watchers
// (excluding the mutating session itself: it knows what it did).
func (srv *Server) notify(origin *session, tenant string, kind gwire.EventKind, key string) {
	srv.mu.Lock()
	var targets []*session
	for s := range srv.watchers[tenant] {
		if s != origin {
			targets = append(targets, s)
		}
	}
	srv.mu.Unlock()
	for _, s := range targets {
		s.enqueueEvent(kind, key)
	}
}

// event is one queued watch notification.
type event struct {
	kind gwire.EventKind
	key  string
}

// session is one accepted connection: its reader goroutine, write
// mutex, tenant binding and watch state.
type session struct {
	srv  *Server
	conn net.Conn

	writeMu sync.Mutex
	// wdeadline is the write deadline currently armed on conn, guarded
	// by writeMu. It is refreshed lazily (see send) so the hot path
	// does not pay a deadline update — which allocates a timer on some
	// net.Conn implementations — per response.
	wdeadline time.Time

	inflight atomic.Int64

	// Bound by the Hello handshake in the reader goroutine; workers
	// only see these after admission, which happens after binding.
	tenant string
	store  TenantStore

	// names interns this session's object keys so the steady-state
	// path does not allocate a string per request. Guarded by writeMu
	// (workers of the same session run concurrently). Bounded by
	// wholesale reset: a session cycling through unbounded distinct
	// keys trades the zero-alloc lookup for churn.
	names map[string]string

	watchSeq     atomic.Uint64
	watchMu      sync.Mutex
	events       chan event
	notifierDone chan struct{}

	// upMu guards the session's active streaming upload (one at a
	// time); see handlePutStart.
	upMu sync.Mutex
	up   *upload
}

// upload is one in-progress streaming put: the pipe feeding the
// backend's PutReader, and the bookkeeping that keeps parts ordered.
// The object stays invisible until OpPutFinish; a dropped connection,
// an OpPutAbort or a drain unwinds it without a trace.
type upload struct {
	key  string
	size int64
	pw   *io.PipeWriter
	// done closes once the backend's PutReader returned; verdict is
	// its error, valid after done. Any number of waiters (a blocked
	// part, the finish, an abort, the session teardown) may consult it.
	done    chan struct{}
	verdict error

	// mu serialises part writes into the pipe and guards got, the
	// number of bytes accepted so far. Parts carry their running offset
	// and anything out of order is refused — pipelined parts racing
	// through different pool workers must not interleave in the pipe.
	mu  sync.Mutex
	got int64
}

// errUploadAborted is what the backend's PutReader sees when the
// client (or a session teardown) aborts the upload mid-stream.
var errUploadAborted = errors.New("gateway: upload aborted")

// maxInternedKeys bounds the per-session key intern table.
const maxInternedKeys = 4096

// internKey returns a stable string for the key bytes without
// allocating on the hit path (a map lookup indexed by string(b) does
// not materialise the string).
func (s *session) internKey(b []byte) string {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if v, ok := s.names[string(b)]; ok {
		return v
	}
	if s.names == nil || len(s.names) >= maxInternedKeys {
		s.names = make(map[string]string, 64)
	}
	k := string(b)
	s.names[k] = k
	return k
}

// readLoop is the session's reader goroutine: read frame, decode,
// admit, hand to the pool.
func (s *session) readLoop() {
	defer func() {
		s.conn.Close()
		s.srv.unregister(s)
		s.stopNotifier()
		// A connection that dies mid-upload unwinds it: the pipe close
		// fails the backend's read, and PutReader deletes every stripe
		// it had seeded before this returns.
		s.abortUpload(errUploadAborted)
	}()
	for {
		frame, err := gwire.ReadPooledFrame(s.conn, s.srv.cfg.MaxFrame)
		if err != nil {
			// EOF, torn frame, oversized frame or a closed connection:
			// in every case the stream is unusable — drop the session.
			return
		}
		req, err := gwire.DecodeRequest(frame.B)
		if err != nil {
			// A peer speaking garbage gets disconnected, not parsed
			// charitably.
			frame.Release()
			return
		}
		if !s.dispatch(task{s: s, frame: frame, req: req}) {
			frame.Release()
		}
	}
}

// dispatch answers a request the reader handles itself, refuses one
// the session or the gateway cannot take, and queues the rest for the
// worker pool. It reports whether the task — its frame with it — now
// belongs to a worker.
func (s *session) dispatch(t task) bool {
	srv := s.srv
	req := &t.req
	switch {
	case req.Op == gwire.OpHello:
		// Bind synchronously: the handshake must win any race with
		// pipelined requests arriving behind it.
		s.handleHello(req)
		return false
	case req.Op == gwire.OpHealth:
		// Health stays answerable during drain and before Hello — it is
		// how operators and balancers probe the gateway.
		s.handleHealth(req.Seq)
		return false
	case s.store == nil:
		s.respondErr(req.Seq, gwire.StatusBadRequest, "hello required before any other op")
		return false
	}
	if s.inflight.Add(1) > int64(srv.cfg.MaxInflight) {
		s.inflight.Add(-1)
		srv.overloads.Add(1)
		s.respondErr(req.Seq, gwire.StatusOverloaded, "connection in-flight window full")
		return false
	}
	// Count the request in-flight before checking the drain flag: Drain
	// sets the flag and then polls the counter, so a request it does
	// not observe here is guaranteed to observe draining and be refused
	// before reaching the queue.
	srv.inflight.Add(1)
	if srv.draining.Load() {
		s.inflight.Add(-1)
		srv.inflight.Add(-1)
		s.respondErr(req.Seq, gwire.StatusDraining, "gateway is draining")
		return false
	}
	select {
	case srv.tasks <- t:
		srv.requests.Add(1)
		return true
	default:
		s.inflight.Add(-1)
		srv.inflight.Add(-1)
		srv.overloads.Add(1)
		s.respondErr(req.Seq, gwire.StatusOverloaded, "worker queue full")
		return false
	}
}

// handleHello binds the session to its tenant namespace.
func (s *session) handleHello(req *gwire.Request) {
	if s.store != nil {
		s.respondErr(req.Seq, gwire.StatusBadRequest, "connection already bound to a tenant")
		return
	}
	if len(req.Key) == 0 {
		s.respondErr(req.Seq, gwire.StatusBadRequest, "empty tenant name")
		return
	}
	store, err := s.srv.tenants.Tenant(string(req.Key))
	if err != nil {
		s.respondErr(req.Seq, gwire.StatusOf(err), err.Error())
		return
	}
	s.tenant = string(req.Key)
	s.store = store
	s.respondOK(req.Seq)
}

// handleHealth answers the health probe: Flag reports serving (true)
// vs draining, Data carries a one-line stats summary.
func (s *session) handleHealth(seq uint64) {
	srv := s.srv
	st := srv.Stats()
	summary := fmt.Sprintf("conns=%d requests=%d overloads=%d events-dropped=%d",
		st.Active, st.Requests, st.Overloads, st.EventsDropped)
	blk, body, dlenOff := beginResponse(len(summary), seq, gwire.StatusOK, !srv.draining.Load(), "")
	body = append(body, summary...)
	gwire.FinishResponse(body, dlenOff)
	s.send(body, blk)
}

// handle executes one admitted request on a pool worker.
func (s *session) handle(req *gwire.Request) {
	srv := s.srv
	ctx := srv.ctx
	switch req.Op {
	case gwire.OpPut:
		key := s.internKey(req.Key)
		err := s.store.Put(ctx, key, req.Data)
		if err == nil {
			srv.notify(s, s.tenant, gwire.EventPut, key)
		}
		s.respondStatus(req.Seq, err)
	case gwire.OpGet:
		key := s.internKey(req.Key)
		// Size the frame for the object; should a Delete and a larger
		// Put race in between, GetAppend grows it once instead.
		size, err := s.store.Size(key)
		if err != nil {
			s.respondStatus(req.Seq, err)
			return
		}
		blk, hdr, dlenOff := beginResponse(size, req.Seq, gwire.StatusOK, false, "")
		body, err := s.store.GetAppend(ctx, key, hdr)
		if err != nil {
			blk.Release()
			s.respondStatus(req.Seq, err)
			return
		}
		gwire.FinishResponse(body, dlenOff)
		s.send(body, blk)
	case gwire.OpReadAt:
		key := s.internKey(req.Key)
		if req.Offset < 0 || req.Length < 0 || req.Length > int64(srv.cfg.MaxFrame) {
			s.respondErr(req.Seq, gwire.StatusBadRange, "offset/length out of range")
			return
		}
		blk, hdr, dlenOff := beginResponse(int(req.Length), req.Seq, gwire.StatusOK, false, "")
		body, err := s.store.ReadAtAppend(ctx, key, int(req.Offset), int(req.Length), hdr)
		if err != nil {
			blk.Release()
			s.respondStatus(req.Seq, err)
			return
		}
		gwire.FinishResponse(body, dlenOff)
		s.send(body, blk)
	case gwire.OpWriteAt:
		key := s.internKey(req.Key)
		if req.Offset < 0 {
			s.respondErr(req.Seq, gwire.StatusBadRange, "negative offset")
			return
		}
		err := s.store.WriteAt(ctx, key, int(req.Offset), req.Data)
		if err == nil {
			srv.notify(s, s.tenant, gwire.EventWrite, key)
		}
		s.respondStatus(req.Seq, err)
	case gwire.OpDelete:
		key := s.internKey(req.Key)
		err := s.store.Delete(ctx, key)
		if err == nil {
			srv.notify(s, s.tenant, gwire.EventDelete, key)
		}
		s.respondStatus(req.Seq, err)
	case gwire.OpScrub:
		key := s.internKey(req.Key)
		summary, err := s.store.ScrubSummary(ctx, key)
		if err != nil {
			s.respondStatus(req.Seq, err)
			return
		}
		s.respondData(req.Seq, []byte(summary))
	case gwire.OpStat:
		key := s.internKey(req.Key)
		size, err := s.store.Size(key)
		if err != nil {
			s.respondStatus(req.Seq, err)
			return
		}
		var sz [8]byte
		binary.BigEndian.PutUint64(sz[:], uint64(size))
		s.respondData(req.Seq, sz[:])
	case gwire.OpPutStart:
		s.handlePutStart(req)
	case gwire.OpPutPart:
		s.handlePutPart(req)
	case gwire.OpPutFinish:
		s.handlePutFinish(req)
	case gwire.OpPutAbort:
		if !s.abortUpload(errUploadAborted) {
			s.respondErr(req.Seq, gwire.StatusBadRequest, "no upload in progress")
			return
		}
		s.respondOK(req.Seq)
	case gwire.OpWatch:
		srv.registerWatch(s, req.Seq)
		s.respondOK(req.Seq)
	default:
		s.respondErr(req.Seq, gwire.StatusBadRequest, "unhandled op")
	}
}

// handlePutStart opens a streaming upload: the declared size travels
// in Length, and from here until OpPutFinish the session's parts are
// piped into the backend's PutReader, which runs in its own goroutine
// so part frames and stripe seeding overlap. Backend errors (quota,
// node failure) surface on the first part or the finish — whichever
// touches the pipe after the backend gave up.
func (s *session) handlePutStart(req *gwire.Request) {
	if req.Length < 0 || req.Length > math.MaxInt {
		s.respondErr(req.Seq, gwire.StatusBadRange, "upload size out of range")
		return
	}
	key := s.internKey(req.Key)
	pr, pw := io.Pipe()
	up := &upload{key: key, size: req.Length, pw: pw, done: make(chan struct{})}
	s.upMu.Lock()
	if s.up != nil {
		s.upMu.Unlock()
		pw.Close()
		s.respondErr(req.Seq, gwire.StatusBadRequest, "an upload is already in progress on this connection")
		return
	}
	s.up = up
	s.upMu.Unlock()
	go func() {
		err := s.store.PutReader(s.srv.ctx, key, pr, int(up.size))
		// Unblock any part still (or later) writing into the pipe: a
		// failed PutReader propagates its error to the waiting part, a
		// completed one turns stray extra parts into ErrClosedPipe.
		pr.CloseWithError(err)
		up.verdict = err
		close(up.done)
	}()
	s.respondOK(req.Seq)
}

// handlePutPart feeds one slice of the upload into the pipe. The part
// write blocks until the streaming pipeline consumes the bytes — that
// is the backpressure that keeps gateway memory at O(part) per upload
// however large the object.
func (s *session) handlePutPart(req *gwire.Request) {
	s.upMu.Lock()
	up := s.up
	s.upMu.Unlock()
	if up == nil {
		s.respondErr(req.Seq, gwire.StatusBadRequest, "no upload in progress")
		return
	}
	up.mu.Lock()
	if req.Offset != up.got {
		up.mu.Unlock()
		s.respondErr(req.Seq, gwire.StatusBadRequest,
			fmt.Sprintf("out-of-order part: offset %d, want %d", req.Offset, up.got))
		return
	}
	if up.got+int64(len(req.Data)) > up.size {
		up.mu.Unlock()
		s.respondErr(req.Seq, gwire.StatusBadRange, "upload exceeds its declared size")
		return
	}
	_, err := up.pw.Write(req.Data)
	if err == nil {
		up.got += int64(len(req.Data))
	}
	up.mu.Unlock()
	if errors.Is(err, io.ErrClosedPipe) {
		// The write half was closed under the blocked write (abort,
		// drain, session teardown): the backend's verdict — guaranteed
		// to arrive, the pipe it was reading is dead too — names the
		// real cause, which is what the client should see.
		<-up.done
		if up.verdict != nil {
			err = up.verdict
		}
	}
	s.respondStatus(req.Seq, err)
}

// handlePutFinish closes the pipe and publishes the backend's verdict:
// only now does the object become visible (and the Watch event fire).
// A finish before all declared bytes arrived surfaces the backend's
// short-read error — and the backend has already unwound every stripe.
func (s *session) handlePutFinish(req *gwire.Request) {
	s.upMu.Lock()
	up := s.up
	s.up = nil
	s.upMu.Unlock()
	if up == nil {
		s.respondErr(req.Seq, gwire.StatusBadRequest, "no upload in progress")
		return
	}
	up.pw.Close()
	<-up.done
	if up.verdict == nil {
		s.srv.notify(s, s.tenant, gwire.EventPut, up.key)
	}
	s.respondStatus(req.Seq, up.verdict)
}

// abortUpload tears the session's active upload down (if any) and
// waits for the backend to finish unwinding — once this returns, no
// chunk of the aborted object remains on any node. cause is what a
// part blocked in the pipe (and the backend's reader) observes.
func (s *session) abortUpload(cause error) bool {
	s.upMu.Lock()
	up := s.up
	s.up = nil
	s.upMu.Unlock()
	if up == nil {
		return false
	}
	up.pw.CloseWithError(cause)
	<-up.done
	return true
}

// respondStatus maps err through the wire taxonomy and answers.
func (s *session) respondStatus(seq uint64, err error) {
	if err == nil {
		s.respondOK(seq)
		return
	}
	status := gwire.StatusOf(err)
	detail := err.Error()
	if status == gwire.StatusInternal && errors.Is(err, context.Canceled) {
		// Shutdown raced the request: report drain, not an internal
		// fault.
		status = gwire.StatusDraining
		detail = "gateway is draining"
	}
	s.respondErr(seq, status, detail)
}

func (s *session) respondOK(seq uint64) {
	blk, body, dlenOff := beginResponse(0, seq, gwire.StatusOK, false, "")
	gwire.FinishResponse(body, dlenOff)
	s.send(body, blk)
}

func (s *session) respondData(seq uint64, data []byte) {
	blk, body, dlenOff := beginResponse(len(data), seq, gwire.StatusOK, false, "")
	body = append(body, data...)
	gwire.FinishResponse(body, dlenOff)
	s.send(body, blk)
}

func (s *session) respondErr(seq uint64, status gwire.Status, detail string) {
	blk, body, dlenOff := beginResponse(0, seq, status, false, detail)
	gwire.FinishResponse(body, dlenOff)
	s.send(body, blk)
}

// send writes one response frame and releases its pooled buffer. The
// frame's first four bytes are reserved for the length prefix (the
// layout beginResponse builds): patch the length in and write the
// whole thing with a single conn.Write under the session's write
// mutex. body is usually blk's own bytes; when an append outgrew blk,
// body is the larger copy and blk goes back to the pool unused.
func (s *session) send(body []byte, blk *blockpool.Block) {
	binary.BigEndian.PutUint32(body[:4], uint32(len(body)-4))
	s.writeMu.Lock()
	// Arm the write deadline, refreshing only once the remaining
	// margin falls below half the timeout: the deadline is a stall
	// backstop, not a per-write precision timer, so every write is
	// still granted at least WriteTimeout/2 and the steady-state path
	// skips the update (which allocates on timer-based conns like
	// net.Pipe).
	if now := time.Now(); s.wdeadline.Sub(now) < s.srv.cfg.WriteTimeout/2 {
		s.wdeadline = now.Add(s.srv.cfg.WriteTimeout)
		s.conn.SetWriteDeadline(s.wdeadline)
	}
	_, err := s.conn.Write(body)
	s.writeMu.Unlock()
	if err != nil {
		// A dead peer — or one that stopped reading until the write
		// deadline fired — must not keep pinning pool workers: close
		// the connection so the reader tears the session down.
		s.conn.Close()
	}
	blk.Release()
}

// enqueueEvent queues a watch notification, dropping it if the
// watcher's buffer is full (best-effort delivery; see package doc).
// The send happens under watchMu — the same lock stopNotifier closes
// s.events under — so a teardown racing a notify can never close the
// channel between the nil check and the send (a send on a closed
// channel panics even with a default case).
func (s *session) enqueueEvent(kind gwire.EventKind, key string) {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	if s.events == nil {
		return
	}
	select {
	case s.events <- event{kind: kind, key: key}:
	default:
		s.srv.eventsDropped.Add(1)
	}
}

// startNotifier lazily starts the session's event-writer goroutine on
// the first Watch: events are written off the data path, so a slow
// watcher connection never stalls the worker that performed the
// mutation.
func (s *session) startNotifier() {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	if s.notifierDone != nil {
		return
	}
	s.notifierDone = make(chan struct{})
	s.events = make(chan event, s.srv.cfg.WatchBuffer)
	go func(ch chan event, done chan struct{}) {
		defer close(done)
		for ev := range ch {
			seq := s.watchSeq.Load()
			blk, body, dlenOff := beginResponse(3+len(ev.key), seq, gwire.StatusEvent, false, "")
			body = gwire.AppendEvent(body, &gwire.Event{Kind: ev.kind, Key: []byte(ev.key)})
			gwire.FinishResponse(body, dlenOff)
			s.send(body, blk)
		}
	}(s.events, s.notifierDone)
}

// waitNotifier blocks until the notifier goroutine has flushed its
// queue and exited, or the grace period expires (a watcher that has
// stopped reading must not hold up shutdown).
func (s *session) waitNotifier(grace time.Duration) {
	s.watchMu.Lock()
	done := s.notifierDone
	s.watchMu.Unlock()
	if done == nil {
		return
	}
	expired := make(chan struct{})
	t := clock.Real{}.AfterFunc(grace, func() { close(expired) })
	defer t.Stop()
	select {
	case <-done:
	case <-expired:
	}
}

// stopNotifier closes the event channel so the notifier goroutine
// exits once it has drained.
func (s *session) stopNotifier() {
	s.watchMu.Lock()
	defer s.watchMu.Unlock()
	if s.events != nil {
		close(s.events)
		s.events = nil
	}
}
