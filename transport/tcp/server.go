// Package tcp puts the TRAP-ERC node protocol on real sockets: a
// NodeServer that serves any node engine over length-prefixed binary
// frames (see internal/wire), and a pooling NodeClient that implements
// the public client.NodeClient transport contract against such a
// server. The cmd/trapnode daemon is a thin wrapper around NodeServer;
// the trapquorum.NetBackend assembles one NodeClient per address into
// a Backend.
//
// One connection carries one request at a time (the client pools
// connections for concurrency), so the protocol needs no request ids
// and a broken frame can simply drop the connection.
package tcp

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"trapquorum/client"
	"trapquorum/internal/clock"
	"trapquorum/internal/wire"
)

// Service is the node surface a server exposes on the wire: the
// public transport contract plus the maintenance operations
// (existence probe, media wipe). *nodeengine.Engine implements it.
type Service interface {
	client.NodeClient
	// HasChunk reports whether the node stores the chunk.
	HasChunk(ctx context.Context, id client.ChunkID) (bool, error)
	// Wipe erases the node's store (media replacement).
	Wipe(ctx context.Context) error
}

// ServerOption customises a NodeServer.
type ServerOption func(*NodeServer)

// WithServerMaxFrame caps the request frames the server accepts.
// Larger frames drop the connection. The default is
// wire.DefaultMaxFrame.
func WithServerMaxFrame(max int) ServerOption {
	return func(s *NodeServer) { s.maxFrame = max }
}

// WithServerIOTimeout bounds how long a connection may take to deliver
// one request frame once its first byte has arrived, and how long a
// response write may block — the slow-loris guard. An *idle*
// connection (no request in progress) is never timed out, so client
// connection pools keep working. 0 disables; the default is 30s.
func WithServerIOTimeout(d time.Duration) ServerOption {
	return func(s *NodeServer) { s.ioTimeout = d }
}

// NodeServer serves one node engine to any number of TCP clients. It
// is transport plumbing only: every operation, including its
// concurrency and atomicity guarantees, is delegated to the Service.
type NodeServer struct {
	svc       Service
	maxFrame  int
	ioTimeout time.Duration

	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer builds a server around the given service.
func NewServer(svc Service, opts ...ServerOption) *NodeServer {
	s := &NodeServer{
		svc:       svc,
		maxFrame:  wire.DefaultMaxFrame,
		ioTimeout: 30 * time.Second,
		conns:     make(map[net.Conn]struct{}),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Serve accepts connections on ln until Close. It returns nil after a
// Close, or the listener's error otherwise. The listener is owned by
// the server from this point on.
func (s *NodeServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("tcp: server closed")
	}
	if s.ln != nil {
		s.mu.Unlock()
		ln.Close()
		return errors.New("tcp: server already serving")
	}
	s.ln = ln
	s.mu.Unlock()

	var backoff time.Duration
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			if errors.Is(err, net.ErrClosed) {
				// The listener died underneath us without a Close —
				// nothing left to accept from.
				return fmt.Errorf("tcp: accept: %w", err)
			}
			// Transient accept failures (fd exhaustion, aborted
			// handshakes) must not take the node down: back off and
			// keep accepting, like a daemon should.
			if backoff == 0 {
				backoff = 5 * time.Millisecond
			} else if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			if clock.Sleep(s.ctx, clock.Real{}, backoff) != nil {
				return nil
			}
			continue
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *NodeServer) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("tcp: %w", err)
	}
	return s.Serve(ln)
}

// Close stops accepting, drops every open connection and cancels the
// contexts of in-flight operations, then waits for the connection
// handlers to drain. The wrapped Service is not closed — the caller
// owns it (so a store can be reopened or served again after a
// simulated crash).
func (s *NodeServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	s.cancel()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return err
}

// serveConn answers requests on one connection until it breaks or the
// server closes. Requests are served strictly in order, one frame at a
// time — the per-node atomicity lives in the Service, and the
// protocol has no request ids, so responses must not interleave.
func (s *NodeServer) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		s.wg.Done()
	}()
	br := bufio.NewReader(conn)
	// One Request per connection: decoding reuses its version and
	// checksum storage, which services copy like the data.
	var req wire.Request
	for {
		// Idle wait: block without a deadline until the next request's
		// first byte, so pooled connections can rest indefinitely. Once
		// a request has started arriving, the peer gets ioTimeout to
		// deliver the whole frame — a slow-loris drip-feeding bytes is
		// cut off instead of pinning the handler forever.
		if s.ioTimeout > 0 {
			conn.SetReadDeadline(time.Time{})
			if _, err := br.Peek(1); err != nil {
				return
			}
			if err := conn.SetReadDeadline(time.Now().Add(s.ioTimeout)); err != nil {
				return
			}
		}
		// The request frame is pooled and released once handle returns:
		// services copy the request buffers they keep (client package,
		// "Buffer ownership"), so nothing aliases it past the call.
		frame, err := wire.ReadPooledFrame(br, s.maxFrame)
		if err != nil {
			// Clean EOF, a broken peer, a stalled frame or an oversized
			// one: the connection is unusable either way.
			return
		}
		if err := req.Decode(frame.B); err != nil {
			frame.Release()
			// The framing survived but the payload did not parse:
			// answer the error, then drop the connection (the peer's
			// encoder is broken).
			if s.ioTimeout > 0 {
				conn.SetWriteDeadline(time.Now().Add(s.ioTimeout))
			}
			writeResponse(conn, wire.Response{Status: wire.StatusBadRequest, Detail: err.Error()})
			return
		}
		resp := s.handle(&req)
		frame.Release()
		// A peer that stops draining its socket must not pin the
		// handler in a blocked write (the read-side twin of slow-loris).
		if s.ioTimeout > 0 {
			if err := conn.SetWriteDeadline(time.Now().Add(s.ioTimeout)); err != nil {
				return
			}
		}
		if err := writeResponse(conn, resp); err != nil {
			return
		}
	}
}

// writeResponse writes one response as a single pooled frame.
func writeResponse(conn net.Conn, resp wire.Response) error {
	frame := wire.ResponseFrame(&resp)
	_, err := conn.Write(frame.B)
	frame.Release()
	return err
}

// epochGuarder is the optional stale-epoch enforcement surface of a
// Service (*nodeengine.Engine implements it). Services without it —
// proxies, pre-epoch engines — pass tagged traffic through; the tag
// still forwards via the context, so enforcement happens wherever a
// guard-capable engine terminates the chain.
type epochGuarder interface {
	EpochGuard(tag uint64) error
}

// handle executes one decoded request against the service. The
// server's context is the operation context: Close cancels it, so
// in-flight operations abort promptly when the node shuts down.
func (s *NodeServer) handle(req *wire.Request) wire.Response {
	ctx := s.ctx
	if req.Epoch != 0 {
		if eg, ok := s.svc.(epochGuarder); ok {
			if err := eg.EpochGuard(req.Epoch); err != nil {
				return errResponse(err)
			}
		}
		// Re-tag the context so a proxying service (a NodeClient as the
		// backend) forwards the epoch on its own outgoing frames.
		ctx = client.WithEpoch(ctx, req.Epoch)
	}
	switch req.Op {
	case wire.OpPing:
		return wire.Response{Status: wire.StatusOK}
	case wire.OpReadChunk:
		chunk, err := s.svc.ReadChunk(ctx, req.ID)
		if err != nil {
			return errResponse(err)
		}
		return wire.Response{Status: wire.StatusOK, Data: chunk.Data, Versions: chunk.Versions, Sums: chunk.Sums}
	case wire.OpReadVersions:
		versions, sums, err := s.svc.ReadVersions(ctx, req.ID)
		if err != nil {
			return errResponse(err)
		}
		return wire.Response{Status: wire.StatusOK, Versions: versions, Sums: sums}
	case wire.OpPutChunk:
		return errResponse(s.svc.PutChunk(ctx, req.ID, req.Data, req.Versions, req.Sums...))
	case wire.OpPutChunkIfFresher:
		return errResponse(s.svc.PutChunkIfFresher(ctx, req.ID, req.Data, req.Versions, req.Sums...))
	case wire.OpCompareAndPut:
		return errResponse(s.svc.CompareAndPut(ctx, req.ID, req.Slot, req.Expect, req.Next, req.Data, req.Sums...))
	case wire.OpCompareAndAdd:
		return errResponse(s.svc.CompareAndAdd(ctx, req.ID, req.Slot, req.Expect, req.Next, req.Data, req.Sums...))
	case wire.OpDeleteChunk:
		return errResponse(s.svc.DeleteChunk(ctx, req.ID))
	case wire.OpDeleteChunks:
		// A service without client.ChunkRemover gets one DeleteChunk
		// per id.
		ids, err := wire.ChunkIDs(req.Versions)
		if err != nil {
			return errResponse(err)
		}
		return errResponse(client.DeleteChunks(ctx, s.svc, ids))
	case wire.OpHasChunk:
		ok, err := s.svc.HasChunk(ctx, req.ID)
		if err != nil {
			return errResponse(err)
		}
		return wire.Response{Status: wire.StatusOK, Flag: ok}
	case wire.OpWipe:
		return errResponse(s.svc.Wipe(ctx))
	case wire.OpEpochGet:
		es, ok := s.svc.(client.EpochSetter)
		if !ok {
			return wire.Response{Status: wire.StatusBadRequest, Detail: "node does not persist epoch state"}
		}
		installed, retired, blob, err := es.EpochState(ctx)
		if err != nil {
			return errResponse(err)
		}
		return wire.Response{Status: wire.StatusOK, Versions: []uint64{installed, retired}, Data: blob}
	case wire.OpEpochSet:
		es, ok := s.svc.(client.EpochSetter)
		if !ok {
			return wire.Response{Status: wire.StatusBadRequest, Detail: "node does not persist epoch state"}
		}
		// Installed watermark in Next, retired in Expect (see the wire
		// package's Request doc).
		return errResponse(es.SetEpoch(ctx, req.Next, req.Expect, req.Data))
	default:
		return wire.Response{Status: wire.StatusBadRequest, Detail: fmt.Sprintf("unhandled op %s", req.Op)}
	}
}

// errResponse folds a service result into a response: the sentinel
// taxonomy travels as a status, everything else as an internal error
// with the message preserved.
func errResponse(err error) wire.Response {
	if err == nil {
		return wire.Response{Status: wire.StatusOK}
	}
	return wire.Response{Status: wire.StatusOf(err), Detail: err.Error()}
}
