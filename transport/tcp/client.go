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

// ErrClientClosed reports an operation on a closed NodeClient.
var ErrClientClosed = errors.New("tcp: client closed")

// ClientOption customises a NodeClient.
type ClientOption func(*NodeClient)

// WithDialTimeout bounds each connection attempt (default 5s). The
// operation context can always cut it shorter.
func WithDialTimeout(d time.Duration) ClientOption {
	return func(c *NodeClient) { c.dialTimeout = d }
}

// WithMaxIdleConns caps the pooled idle connections per node (default
// 8 — enough for the dispatch engine's default fan-out against one
// node). Extra connections are closed on release.
func WithMaxIdleConns(n int) ClientOption {
	return func(c *NodeClient) { c.maxIdle = n }
}

// WithClientMaxFrame caps the response frames the client accepts
// (default wire.DefaultMaxFrame).
func WithClientMaxFrame(max int) ClientOption {
	return func(c *NodeClient) { c.maxFrame = max }
}

// conn is one pooled connection. It keeps no frame buffers: each
// exchange takes its request and response frames from the block pool
// and releases them once written or decoded.
type conn struct {
	nc net.Conn
	br *bufio.Reader
}

// NodeClient implements the public client.NodeClient contract over
// TCP against one node address. Connections are dialed on demand,
// pooled while idle, and dropped on any error, so a node restart heals
// transparently on the next operation.
//
// # Error taxonomy
//
// Node-side results travel as wire statuses and come back as the
// client package's sentinels (a remote version conflict still
// satisfies errors.Is(err, client.ErrVersionMismatch)). Transport
// failures — connection refused, reset, timeout — surface as
// client.ErrNodeDown wraps: on the wire, an unreachable node and a
// fail-stopped node are indistinguishable, which is exactly the
// protocol's fail-stop model. A cancelled or expired context surfaces
// as the context's error.
//
// # Cancellation
//
// Deadlines map onto socket deadlines; a cancellation mid-flight
// unblocks the socket immediately. An operation cancelled after the
// request reached the wire may or may not have taken effect on the
// node — the client cannot know, and reports the context error. The
// client package's contract calls that outcome in doubt; see it for
// how the protocol layers (rollback, repair, scrub) absorb it.
type NodeClient struct {
	addr        string
	dialTimeout time.Duration
	maxIdle     int
	maxFrame    int
	res         *resilience // nil = no breaker/retry policy

	mu     sync.Mutex
	idle   []*conn
	closed bool
}

// Compile-time conformance: the TCP client is a full node client and
// a servable Service (so proxies compose).
var (
	_ client.NodeClient = (*NodeClient)(nil)
	_ Service           = (*NodeClient)(nil)
)

// NewClient builds a client for one node address. No connection is
// made until the first operation.
func NewClient(addr string, opts ...ClientOption) *NodeClient {
	c := &NodeClient{
		addr:        addr,
		dialTimeout: 5 * time.Second,
		maxIdle:     8,
		maxFrame:    wire.DefaultMaxFrame,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Addr returns the node address this client dials.
func (c *NodeClient) Addr() string { return c.addr }

// Close drops the idle pool. In-flight operations finish; their
// connections are closed on release.
func (c *NodeClient) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.closed = true
	c.mu.Unlock()
	for _, cn := range idle {
		cn.nc.Close()
	}
	return nil
}

// Usable reports whether the link is worth sending fresh work to:
// false only while the circuit breaker is open and cooling down.
// Always true without a resilience policy.
func (c *NodeClient) Usable() bool {
	if c.res == nil {
		return true
	}
	return c.res.usable(time.Now())
}

// Latency returns the smoothed round-trip latency of successful
// exchanges, and false before the first sample (or without a
// resilience policy).
func (c *NodeClient) Latency() (time.Duration, bool) {
	if c.res == nil {
		return 0, false
	}
	d := time.Duration(c.res.ewmaNanos.Load())
	return d, d > 0
}

// LinkHealth snapshots the link's breaker state and resilience
// counters. The Node field is left zero — the backend that owns the
// client fills in the cluster index.
func (c *NodeClient) LinkHealth() client.LinkHealth {
	lh := client.LinkHealth{Addr: c.addr}
	if c.res == nil {
		return lh
	}
	lh.Breaker, lh.EWMA = c.res.snapshot()
	lh.BreakerOpens = c.res.opens.Load()
	lh.FastFails = c.res.fastFails.Load()
	lh.Retries = c.res.retries.Load()
	return lh
}

// RetryBudget exposes the budget the client draws from (nil without a
// resilience policy). Backends use pointer identity to aggregate a
// shared budget exactly once.
func (c *NodeClient) RetryBudget() *RetryBudget {
	if c.res == nil {
		return nil
	}
	return c.res.budget
}

// getConn pops an idle connection (pooled == true) or dials a new
// one.
func (c *NodeClient) getConn(ctx context.Context) (cn *conn, pooled bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, ErrClientClosed
	}
	if n := len(c.idle); n > 0 {
		cn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return cn, true, nil
	}
	c.mu.Unlock()
	cn, err = c.dial(ctx)
	return cn, false, err
}

// dial opens a fresh connection, bypassing the pool.
func (c *NodeClient) dial(ctx context.Context) (*conn, error) {
	d := net.Dialer{Timeout: c.dialTimeout}
	nc, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReader(nc)}, nil
}

// putConn returns a healthy connection to the pool.
func (c *NodeClient) putConn(cn *conn) {
	// Clear any per-operation deadline before the connection rests.
	if err := cn.nc.SetDeadline(time.Time{}); err != nil {
		cn.nc.Close()
		return
	}
	c.mu.Lock()
	if c.closed || len(c.idle) >= c.maxIdle {
		c.mu.Unlock()
		cn.nc.Close()
		return
	}
	c.idle = append(c.idle, cn)
	c.mu.Unlock()
}

// aLongTimeAgo is the deadline used to unblock socket IO on
// cancellation (the net package treats any past deadline as
// "interrupt now").
var aLongTimeAgo = time.Unix(1, 0)

// do performs one exchange under the client's resilience policy (if
// any): the breaker fast-fails while the node is known bad, each
// attempt is individually bounded by AttemptTimeout, and replay-safe
// operations retry with jittered backoff while the retry budget
// lasts. Without a policy it is exactly one attempt.
func (c *NodeClient) do(ctx context.Context, req *wire.Request) (wire.Response, error) {
	if err := ctx.Err(); err != nil {
		return wire.Response{}, err
	}
	// Stamp the placement epoch riding the context (client.WithEpoch)
	// into the frame, once for every operation: the node's stale-epoch
	// guard sees exactly what the coordinator operated under.
	if req.Epoch == 0 {
		req.Epoch = client.EpochFromContext(ctx)
	}
	// An oversized request would just make the server drop the
	// connection, reading as a phantom node-down; reject it here with
	// an honest error instead.
	if size := wire.EncodedRequestSize(req); size > c.maxFrame {
		return wire.Response{}, fmt.Errorf(
			"%w: encoded %s request is %d bytes, frame limit %d — raise the frame limit on client and server, or use smaller blocks",
			client.ErrBadRequest, req.Op, size, c.maxFrame)
	}
	r := c.res
	if r == nil {
		return c.attempt(ctx, req)
	}
	for n := 0; ; n++ {
		if !r.allow(time.Now()) {
			r.fastFails.Add(1)
			return wire.Response{}, fmt.Errorf("%w: %s %s: circuit breaker open",
				client.ErrNodeDown, req.Op, c.addr)
		}
		start := time.Now()
		resp, err := c.boundedAttempt(ctx, req)
		if err == nil {
			r.onSuccess(time.Since(start))
			r.budget.deposit()
			return resp, nil
		}
		if errors.Is(err, ErrClientClosed) {
			r.onAbandon()
			return wire.Response{}, err
		}
		if cerr := ctxEnded(ctx); cerr != nil {
			// The caller's own context ended. A deadline blown on this
			// node is evidence against the node; a cancellation says
			// nothing about it — but either way the attempt must hand
			// back the half-open probe slot it may hold, or the breaker
			// would wedge half-open and fast-fail forever.
			if errors.Is(cerr, context.DeadlineExceeded) {
				r.onFailure(time.Now())
			} else {
				r.onAbandon()
			}
			return wire.Response{}, err
		}
		// Transport failure: refused, reset, torn frame, undecodable
		// response, attempt timeout — the breaker counts them all.
		r.onFailure(time.Now())
		if !req.Op.ReplaySafe() || n >= r.cfg.RetryAttempts || !r.budget.withdraw() {
			return wire.Response{}, err
		}
		r.retries.Add(1)
		if serr := clock.Sleep(ctx, clock.Real{}, r.backoff(n+1)); serr != nil {
			return wire.Response{}, c.mapErr(ctx, req.Op, serr)
		}
	}
}

// boundedAttempt runs one attempt under the policy's AttemptTimeout.
// An attempt that hits the cap while the caller's context is still
// live is remapped to a node failure: the node had its chance and
// stalled, which must feed the breaker and fund a retry, not surface
// as the caller's own timeout.
func (c *NodeClient) boundedAttempt(ctx context.Context, req *wire.Request) (wire.Response, error) {
	at := c.res.cfg.AttemptTimeout
	if at <= 0 {
		return c.attempt(ctx, req)
	}
	actx, cancel := context.WithTimeout(ctx, at)
	defer cancel()
	resp, err := c.attempt(actx, req)
	if err != nil && ctxEnded(ctx) == nil && ctxEnded(actx) != nil {
		err = fmt.Errorf("%w: %s %s: attempt timed out after %v",
			client.ErrNodeDown, req.Op, c.addr, at)
	}
	return resp, err
}

// attempt performs one request/response exchange, mapping every
// failure into the transport taxonomy. The returned response's Data is
// copied out of connection-owned buffers and safe to retain.
//
// A pooled connection can be stale — the node restarted while it
// rested, and the first use discovers the broken pipe. So that a
// restart heals on the next operation instead of burning one spurious
// node-down per idle connection, a failure on a *reused* connection is
// retried once on a fresh dial — but only when the retry cannot
// duplicate an applied mutation: either the request never finished
// reaching the wire, or the operation is replay-safe under concurrent
// writers (see wire.Op.ReplaySafe). This free redial predates the
// resilience policy's budgeted retries and stays outside the budget: a
// stale pooled connection is a local artefact, not network weather.
func (c *NodeClient) attempt(ctx context.Context, req *wire.Request) (wire.Response, error) {
	cn, pooled, err := c.getConn(ctx)
	if err != nil {
		if errors.Is(err, ErrClientClosed) {
			return wire.Response{}, err
		}
		return wire.Response{}, c.mapErr(ctx, req.Op, err)
	}
	resp, wrote, err := c.exchange(ctx, cn, req)
	if err != nil {
		// The connection's state is unknown (a response may be in
		// flight, a frame half-written): never reuse it.
		cn.nc.Close()
		if pooled && ctx.Err() == nil && (!wrote || req.Op.ReplaySafe()) {
			fresh, derr := c.dial(ctx)
			if derr != nil {
				return wire.Response{}, c.mapErr(ctx, req.Op, derr)
			}
			resp, _, err = c.exchange(ctx, fresh, req)
			if err != nil {
				fresh.nc.Close()
				return wire.Response{}, c.mapErr(ctx, req.Op, err)
			}
			c.putConn(fresh)
			return resp, nil
		}
		return wire.Response{}, c.mapErr(ctx, req.Op, err)
	}
	c.putConn(cn)
	return resp, nil
}

// exchange runs the frame round trip on one connection, honouring the
// context through socket deadlines plus a cancellation callback
// (context.AfterFunc, so no goroutine waits beside the exchange).
// wrote reports whether the request frame completely reached the
// socket — before that point the node cannot have applied anything,
// so the caller may retry any operation on a fresh connection.
func (c *NodeClient) exchange(ctx context.Context, cn *conn, req *wire.Request) (resp wire.Response, wrote bool, err error) {
	if deadline, ok := ctx.Deadline(); ok {
		if err := cn.nc.SetDeadline(deadline); err != nil {
			return wire.Response{}, false, err
		}
	}
	if ctx.Done() != nil {
		fired := make(chan struct{})
		stop := context.AfterFunc(ctx, func() {
			cn.nc.SetDeadline(aLongTimeAgo)
			close(fired)
		})
		// A callback that has already started is waited out, so a late
		// cancellation cannot poison the connection after it returns to
		// the pool; one that has not is simply unregistered.
		defer func() {
			if !stop() {
				<-fired
			}
		}()
	}

	// The whole frame goes out in one write: the request data is copied
	// once, into the pooled frame, and the frame is released right after.
	frame := wire.RequestFrame(req)
	_, err = cn.nc.Write(frame.B)
	frame.Release()
	if err != nil {
		return wire.Response{}, false, err
	}
	wrote = true
	frame, err = wire.ReadPooledFrame(cn.br, c.maxFrame)
	if err != nil {
		return wire.Response{}, wrote, err
	}
	defer frame.Release()
	resp, err = wire.DecodeResponse(frame.B)
	if err != nil {
		return wire.Response{}, wrote, err
	}
	// The response data aliases the pooled frame; copy it out before
	// the frame is released.
	if len(resp.Data) > 0 {
		resp.Data = append([]byte(nil), resp.Data...)
	}
	return resp, wrote, nil
}

// mapErr folds a transport failure into the protocol's taxonomy: the
// context's own error when the caller gave up, client.ErrNodeDown for
// everything else (refused, reset, timed out, torn frames — on the
// wire they are all "the node did not answer").
func (c *NodeClient) mapErr(ctx context.Context, op wire.Op, err error) error {
	if ctxErr := ctxEnded(ctx); ctxErr != nil {
		return fmt.Errorf("tcp: %s %s: %w", op, c.addr, ctxErr)
	}
	return fmt.Errorf("%w: %s %s: %v", client.ErrNodeDown, op, c.addr, err)
}

// ctxEnded is ctx.Err(), except that a context whose deadline has passed
// counts as expired before its own timer has fired. exchange copies the
// deadline onto the socket, and the socket's timer can win the race by
// a hair: the i/o timeout it raises is the caller's deadline, not
// evidence that the node is down.
func ctxEnded(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if deadline, ok := ctx.Deadline(); ok && !time.Now().Before(deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// call runs an exchange and surfaces the node's status as an error.
func (c *NodeClient) call(ctx context.Context, req *wire.Request) (wire.Response, error) {
	resp, err := c.do(ctx, req)
	if err != nil {
		return wire.Response{}, err
	}
	if err := resp.Status.Err(resp.Detail); err != nil {
		return wire.Response{}, err
	}
	return resp, nil
}

// Ping checks the node answers on the wire (a transport health probe;
// no store access).
func (c *NodeClient) Ping(ctx context.Context) error {
	_, err := c.call(ctx, &wire.Request{Op: wire.OpPing})
	return err
}

// ReadChunk implements client.NodeClient.
func (c *NodeClient) ReadChunk(ctx context.Context, id client.ChunkID) (client.Chunk, error) {
	resp, err := c.call(ctx, &wire.Request{Op: wire.OpReadChunk, ID: id})
	if err != nil {
		return client.Chunk{}, err
	}
	return client.Chunk{Data: resp.Data, Versions: resp.Versions, Sums: resp.Sums}, nil
}

// ReadVersions implements client.NodeClient.
func (c *NodeClient) ReadVersions(ctx context.Context, id client.ChunkID) ([]uint64, []client.BlockSum, error) {
	resp, err := c.call(ctx, &wire.Request{Op: wire.OpReadVersions, ID: id})
	if err != nil {
		return nil, nil, err
	}
	return resp.Versions, resp.Sums, nil
}

// PutChunk implements client.NodeClient.
func (c *NodeClient) PutChunk(ctx context.Context, id client.ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	_, err := c.call(ctx, &wire.Request{Op: wire.OpPutChunk, ID: id, Data: data, Versions: versions, Sums: sums})
	return err
}

// PutChunkIfFresher implements client.NodeClient.
func (c *NodeClient) PutChunkIfFresher(ctx context.Context, id client.ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	_, err := c.call(ctx, &wire.Request{Op: wire.OpPutChunkIfFresher, ID: id, Data: data, Versions: versions, Sums: sums})
	return err
}

// CompareAndPut implements client.NodeClient.
func (c *NodeClient) CompareAndPut(ctx context.Context, id client.ChunkID, slot int, expect, next uint64, data []byte, sum ...client.BlockSum) error {
	_, err := c.call(ctx, &wire.Request{Op: wire.OpCompareAndPut, ID: id, Slot: slot, Expect: expect, Next: next, Data: data, Sums: sum})
	return err
}

// CompareAndAdd implements client.NodeClient.
func (c *NodeClient) CompareAndAdd(ctx context.Context, id client.ChunkID, slot int, expect, next uint64, delta []byte, sum ...client.BlockSum) error {
	_, err := c.call(ctx, &wire.Request{Op: wire.OpCompareAndAdd, ID: id, Slot: slot, Expect: expect, Next: next, Data: delta, Sums: sum})
	return err
}

// DeleteChunk implements client.NodeClient.
func (c *NodeClient) DeleteChunk(ctx context.Context, id client.ChunkID) error {
	_, err := c.call(ctx, &wire.Request{Op: wire.OpDeleteChunk, ID: id})
	return err
}

// DeleteChunks implements client.ChunkRemover: every id rides one
// OpDeleteChunks frame, which the node applies as one durable batch.
func (c *NodeClient) DeleteChunks(ctx context.Context, ids []client.ChunkID) error {
	_, err := c.call(ctx, &wire.Request{Op: wire.OpDeleteChunks, Versions: wire.AppendChunkIDs(make([]uint64, 0, 2*len(ids)), ids)})
	return err
}

// HasChunk reports whether the node stores the chunk.
func (c *NodeClient) HasChunk(ctx context.Context, id client.ChunkID) (bool, error) {
	resp, err := c.call(ctx, &wire.Request{Op: wire.OpHasChunk, ID: id})
	if err != nil {
		return false, err
	}
	return resp.Flag, nil
}

// Wipe erases the remote node's store (media replacement).
func (c *NodeClient) Wipe(ctx context.Context) error {
	_, err := c.call(ctx, &wire.Request{Op: wire.OpWipe})
	return err
}

// SetEpoch durably records the epoch watermarks and placement blob on
// the remote node (see client.EpochSetter). The installed watermark
// rides the Next field, the retired watermark rides Expect.
func (c *NodeClient) SetEpoch(ctx context.Context, installed, retired uint64, blob []byte) error {
	_, err := c.call(ctx, &wire.Request{Op: wire.OpEpochSet, Next: installed, Expect: retired, Data: blob})
	return err
}

// EpochState reads back the remote node's persisted epoch watermarks
// and placement blob (see client.EpochSetter).
func (c *NodeClient) EpochState(ctx context.Context) (installed, retired uint64, blob []byte, err error) {
	resp, err := c.call(ctx, &wire.Request{Op: wire.OpEpochGet})
	if err != nil {
		return 0, 0, nil, err
	}
	if len(resp.Versions) >= 2 {
		installed, retired = resp.Versions[0], resp.Versions[1]
	}
	return installed, retired, resp.Data, nil
}

// Compile-time conformance with the optional reconfiguration and
// vectored-removal surfaces.
var (
	_ client.EpochSetter  = (*NodeClient)(nil)
	_ client.ChunkRemover = (*NodeClient)(nil)
)
