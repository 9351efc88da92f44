package main

import (
	"context"
	"errors"
	"io"
	"net"
	"strconv"
	"strings"
	"sync/atomic"

	"trapquorum"
	"trapquorum/client"
	"trapquorum/internal/chunkmeta"
	"trapquorum/internal/diskstore"
	"trapquorum/internal/gateway"
	"trapquorum/internal/nodeengine"
	"trapquorum/transport/tcp"
)

// Every decorator below forwards the optional interfaces of what it
// wraps; TestDecoratorsKeepOptionalInterfaces pins that the traced
// stack still batches, scans and installs epochs.

// ---- S2: gateway.TenantProvider → gateway.TenantStore ----

// tracedTenants hands the gateway tenant stores that time every call
// into the service tier. The gateway's wire protocol carries no op id,
// so the store recovers it from the key: clients own disjoint key
// prefixes ("c<client>/…") and each has at most one op in flight.
type tracedTenants struct {
	inner gateway.TenantProvider
	tr    *tracer
}

func (p tracedTenants) Tenant(name string) (gateway.TenantStore, error) {
	ts, err := p.inner.Tenant(name)
	if err != nil {
		return nil, err
	}
	return &tracedTenant{inner: ts, tr: p.tr}, nil
}

type tracedTenant struct {
	inner gateway.TenantStore
	tr    *tracer
}

// clientOfKey parses the client index out of a benchmark key.
func clientOfKey(key string) int {
	if !strings.HasPrefix(key, "c") {
		return -1
	}
	slash := strings.IndexByte(key, '/')
	if slash < 0 {
		return -1
	}
	n, err := strconv.Atoi(key[1:slash])
	if err != nil || n < 0 || n >= maxClients {
		return -1
	}
	return n
}

func (t *tracedTenant) enter(ctx context.Context, key string) (context.Context, uint64, int64) {
	var op uint64
	c := clientOfKey(key)
	if c >= 0 {
		op = t.tr.current[c].Load()
	}
	return context.WithValue(ctx, opKey{}, opRef{op, c}), op, t.tr.now()
}

func (t *tracedTenant) leave(op uint64, kind uint8, start int64) {
	t.tr.rec(int(op), span{op: op, seam: seamTenant, kind: kind, node: -1, start: start, end: t.tr.now()})
}

func (t *tracedTenant) Put(ctx context.Context, key string, data []byte) error {
	ctx, op, start := t.enter(ctx, key)
	defer t.leave(op, opWrite, start)
	return t.inner.Put(ctx, key, data)
}

func (t *tracedTenant) PutReader(ctx context.Context, key string, r io.Reader, size int) error {
	ctx, op, start := t.enter(ctx, key)
	defer t.leave(op, opWrite, start)
	return t.inner.PutReader(ctx, key, r, size)
}

func (t *tracedTenant) GetAppend(ctx context.Context, key string, dst []byte) ([]byte, error) {
	ctx, op, start := t.enter(ctx, key)
	defer t.leave(op, opRead, start)
	return t.inner.GetAppend(ctx, key, dst)
}

func (t *tracedTenant) ReadAtAppend(ctx context.Context, key string, offset, length int, dst []byte) ([]byte, error) {
	ctx, op, start := t.enter(ctx, key)
	defer t.leave(op, opRead, start)
	return t.inner.ReadAtAppend(ctx, key, offset, length, dst)
}

func (t *tracedTenant) WriteAt(ctx context.Context, key string, offset int, data []byte) error {
	ctx, op, start := t.enter(ctx, key)
	defer t.leave(op, opWrite, start)
	return t.inner.WriteAt(ctx, key, offset, data)
}

func (t *tracedTenant) Delete(ctx context.Context, key string) error {
	ctx, op, start := t.enter(ctx, key)
	defer t.leave(op, opDelete, start)
	return t.inner.Delete(ctx, key)
}

// Size and ScrubSummary touch only the directory; they are not timed.
func (t *tracedTenant) Size(key string) (int, error) { return t.inner.Size(key) }

func (t *tracedTenant) ScrubSummary(ctx context.Context, key string) (string, error) {
	return t.inner.ScrubSummary(ctx, key)
}

// ---- S3: client.NodeClient ----

// tracedNodeClient times every RPC the coordinator issues to one node
// and tags it with the client op carried in ctx.
type tracedNodeClient struct {
	inner client.NodeClient
	node  int
	tr    *tracer
}

func wrapNodeClients(tr *tracer, first int, nodes []client.NodeClient) []client.NodeClient {
	out := make([]client.NodeClient, len(nodes))
	for i, n := range nodes {
		out[i] = &tracedNodeClient{inner: n, node: first + i, tr: tr}
	}
	return out
}

func (c *tracedNodeClient) done(ctx context.Context, kind uint8, id client.ChunkID, bytes int, start int64) {
	// Ownership is learnt even while spans are not kept: the window
	// deletes what the preload wrote.
	op := c.tr.opOf(ctx, id.Stripe, kind == rpcPutChunk)
	c.tr.rec(c.node, span{op: op, seam: seamClient, kind: kind, node: int16(c.node),
		start: start, end: c.tr.now(), chunk: id, bytes: int32(bytes)})
}

func (c *tracedNodeClient) ReadChunk(ctx context.Context, id client.ChunkID) (client.Chunk, error) {
	start := c.tr.now()
	ch, err := c.inner.ReadChunk(ctx, id)
	c.done(ctx, rpcReadChunk, id, len(ch.Data), start)
	return ch, err
}

func (c *tracedNodeClient) ReadVersions(ctx context.Context, id client.ChunkID) ([]uint64, []client.BlockSum, error) {
	start := c.tr.now()
	v, s, err := c.inner.ReadVersions(ctx, id)
	c.done(ctx, rpcReadVersions, id, 0, start)
	return v, s, err
}

func (c *tracedNodeClient) PutChunk(ctx context.Context, id client.ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	start := c.tr.now()
	err := c.inner.PutChunk(ctx, id, data, versions, sums...)
	c.done(ctx, rpcPutChunk, id, len(data), start)
	return err
}

func (c *tracedNodeClient) PutChunkIfFresher(ctx context.Context, id client.ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	start := c.tr.now()
	err := c.inner.PutChunkIfFresher(ctx, id, data, versions, sums...)
	c.done(ctx, rpcPutIfFresher, id, len(data), start)
	return err
}

func (c *tracedNodeClient) CompareAndPut(ctx context.Context, id client.ChunkID, slot int, expect, next uint64, data []byte, sum ...client.BlockSum) error {
	start := c.tr.now()
	err := c.inner.CompareAndPut(ctx, id, slot, expect, next, data, sum...)
	c.done(ctx, rpcCompareAndPut, id, len(data), start)
	return err
}

func (c *tracedNodeClient) CompareAndAdd(ctx context.Context, id client.ChunkID, slot int, expect, next uint64, delta []byte, sum ...client.BlockSum) error {
	start := c.tr.now()
	err := c.inner.CompareAndAdd(ctx, id, slot, expect, next, delta, sum...)
	c.done(ctx, rpcCompareAndAdd, id, len(delta), start)
	return err
}

func (c *tracedNodeClient) DeleteChunk(ctx context.Context, id client.ChunkID) error {
	start := c.tr.now()
	err := c.inner.DeleteChunk(ctx, id)
	c.done(ctx, rpcDeleteChunk, id, 0, start)
	return err
}

var errNoEpochs = errors.New("bench: wrapped node client does not persist epoch state")

// SetEpoch and EpochState forward client.EpochSetter, which the
// service tier asserts for during a reconfiguration.
func (c *tracedNodeClient) SetEpoch(ctx context.Context, installed, retired uint64, blob []byte) error {
	es, ok := c.inner.(client.EpochSetter)
	if !ok {
		return errNoEpochs
	}
	start := c.tr.now()
	err := es.SetEpoch(ctx, installed, retired, blob)
	c.done(ctx, rpcSetEpoch, client.ChunkID{}, 0, start)
	return err
}

func (c *tracedNodeClient) EpochState(ctx context.Context) (uint64, uint64, []byte, error) {
	es, ok := c.inner.(client.EpochSetter)
	if !ok {
		return 0, 0, nil, errNoEpochs
	}
	start := c.tr.now()
	installed, retired, blob, err := es.EpochState(ctx)
	c.done(ctx, rpcEpochState, client.ChunkID{}, 0, start)
	return installed, retired, blob, err
}

// tracedBackend is the direct path's way in for S3: a trapquorum.Backend
// whose node clients are wrapped. Embedding the *NetBackend keeps every
// optional backend extension of resilience.go and selfheal.go
// (NodeUsable, NodeLatency, LinkHealth, ResilienceStats, ProbeNode).
// GrowAddrs passes through unwrapped: no direct-path workload grows
// its cluster.
type tracedBackend struct {
	*trapquorum.NetBackend
	tr *tracer
}

func (b *tracedBackend) Open(ctx context.Context, n int) ([]client.NodeClient, error) {
	nodes, err := b.NetBackend.Open(ctx, n)
	if err != nil {
		return nil, err
	}
	return wrapNodeClients(b.tr, 0, nodes), nil
}

// ---- S4: tcp.Service ----

// tracedService times every request a node's TCP server hands to its
// engine. It forwards the engine's epoch guard and client.EpochSetter,
// which the server asserts for.
type tracedService struct {
	inner *nodeengine.Engine
	node  int
	tr    *tracer
}

var _ tcp.Service = (*tracedService)(nil)

func (s *tracedService) done(kind uint8, id client.ChunkID, start int64) {
	s.tr.rec(s.node, span{seam: seamNode, kind: kind, node: int16(s.node), start: start, end: s.tr.now(), chunk: id})
}

func (s *tracedService) ReadChunk(ctx context.Context, id client.ChunkID) (client.Chunk, error) {
	defer s.done(rpcReadChunk, id, s.tr.now())
	return s.inner.ReadChunk(ctx, id)
}

func (s *tracedService) ReadVersions(ctx context.Context, id client.ChunkID) ([]uint64, []client.BlockSum, error) {
	defer s.done(rpcReadVersions, id, s.tr.now())
	return s.inner.ReadVersions(ctx, id)
}

func (s *tracedService) PutChunk(ctx context.Context, id client.ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	defer s.done(rpcPutChunk, id, s.tr.now())
	return s.inner.PutChunk(ctx, id, data, versions, sums...)
}

func (s *tracedService) PutChunkIfFresher(ctx context.Context, id client.ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	defer s.done(rpcPutIfFresher, id, s.tr.now())
	return s.inner.PutChunkIfFresher(ctx, id, data, versions, sums...)
}

func (s *tracedService) CompareAndPut(ctx context.Context, id client.ChunkID, slot int, expect, next uint64, data []byte, sum ...client.BlockSum) error {
	defer s.done(rpcCompareAndPut, id, s.tr.now())
	return s.inner.CompareAndPut(ctx, id, slot, expect, next, data, sum...)
}

func (s *tracedService) CompareAndAdd(ctx context.Context, id client.ChunkID, slot int, expect, next uint64, delta []byte, sum ...client.BlockSum) error {
	defer s.done(rpcCompareAndAdd, id, s.tr.now())
	return s.inner.CompareAndAdd(ctx, id, slot, expect, next, delta, sum...)
}

func (s *tracedService) DeleteChunk(ctx context.Context, id client.ChunkID) error {
	defer s.done(rpcDeleteChunk, id, s.tr.now())
	return s.inner.DeleteChunk(ctx, id)
}

func (s *tracedService) HasChunk(ctx context.Context, id client.ChunkID) (bool, error) {
	defer s.done(rpcHasChunk, id, s.tr.now())
	return s.inner.HasChunk(ctx, id)
}

func (s *tracedService) Wipe(ctx context.Context) error {
	defer s.done(rpcWipe, client.ChunkID{}, s.tr.now())
	return s.inner.Wipe(ctx)
}

func (s *tracedService) EpochGuard(tag uint64) error { return s.inner.EpochGuard(tag) }

func (s *tracedService) SetEpoch(ctx context.Context, installed, retired uint64, blob []byte) error {
	defer s.done(rpcSetEpoch, client.ChunkID{}, s.tr.now())
	return s.inner.SetEpoch(ctx, installed, retired, blob)
}

func (s *tracedService) EpochState(ctx context.Context) (uint64, uint64, []byte, error) {
	defer s.done(rpcEpochState, client.ChunkID{}, s.tr.now())
	return s.inner.EpochState(ctx)
}

// ---- S5: nodeengine.ChunkStore ----

// tracedStore times every call a node engine makes into its durable
// store. It forwards nodeengine.BatchStore, so the engine keeps staging
// through group commit, and nodeengine.Scanner.
type tracedStore struct {
	inner *diskstore.Store
	node  int
	tr    *tracer
}

var (
	_ nodeengine.BatchStore = (*tracedStore)(nil)
	_ nodeengine.Scanner    = (*tracedStore)(nil)
)

func (s *tracedStore) done(kind uint8, id client.ChunkID, start int64) {
	s.tr.rec(s.node, span{seam: seamStore, kind: kind, node: int16(s.node), start: start, end: s.tr.now(), chunk: id})
}

func (s *tracedStore) Get(id client.ChunkID) ([]byte, []uint64, chunkmeta.Meta, bool, error) {
	defer s.done(storeGet, id, s.tr.now())
	return s.inner.Get(id)
}

func (s *tracedStore) Put(id client.ChunkID, data []byte, versions []uint64, meta chunkmeta.Meta) error {
	defer s.done(storePut, id, s.tr.now())
	return s.inner.Put(id, data, versions, meta)
}

func (s *tracedStore) Delete(id client.ChunkID) error {
	defer s.done(storeDelete, id, s.tr.now())
	return s.inner.Delete(id)
}

func (s *tracedStore) Wipe() error {
	defer s.done(storeWipe, client.ChunkID{}, s.tr.now())
	return s.inner.Wipe()
}

func (s *tracedStore) Len() (int, error) { return s.inner.Len() }
func (s *tracedStore) Close() error      { return s.inner.Close() }
func (s *tracedStore) Batching() bool    { return s.inner.Batching() }

func (s *tracedStore) Scan() ([]client.ChunkID, error) { return s.inner.Scan() }

// staged wraps a group-commit wait function so the span ends when the
// mutation is durable.
func (s *tracedStore) staged(kind uint8, id client.ChunkID, start int64, wait func() error, err error) (func() error, error) {
	if err != nil || wait == nil {
		s.done(kind, id, start)
		return wait, err
	}
	return func() error {
		defer s.done(kind, id, start)
		return wait()
	}, nil
}

func (s *tracedStore) PutBatched(id client.ChunkID, data []byte, versions []uint64, meta chunkmeta.Meta) (func() error, error) {
	start := s.tr.now()
	wait, err := s.inner.PutBatched(id, data, versions, meta)
	return s.staged(storePutStaged, id, start, wait, err)
}

func (s *tracedStore) DeleteBatched(id client.ChunkID) (func() error, error) {
	start := s.tr.now()
	wait, err := s.inner.DeleteBatched(id)
	return s.staged(storeDeleteStaged, id, start, wait, err)
}

func (s *tracedStore) WipeBatched() (func() error, error) {
	start := s.tr.now()
	wait, err := s.inner.WipeBatched()
	return s.staged(storeWipeStaged, client.ChunkID{}, start, wait, err)
}

// ---- S6: net.Listener ----

// countingListener counts the bytes crossing a listener's connections
// in both directions. It is always installed: wire bytes are an
// end-to-end metric.
type countingListener struct {
	net.Listener
	bytes atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, bytes: &l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}
