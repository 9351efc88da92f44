package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"trapquorum/client"
)

// The seams spans are recorded at, outermost first. Every one is an
// interface the program already has; nothing inside it is touched.
type seam uint8

const (
	seamDriver seam = iota + 1 // S1: the driver's call into ObjectStore / gateway client
	seamTenant                 // S2: gateway.TenantStore (gateway → service)
	seamClient                 // S3: client.NodeClient (core → transport/tcp client)
	seamNode                   // S4: tcp.Service (transport/tcp server → nodeengine)
	seamStore                  // S5: nodeengine.ChunkStore (nodeengine → diskstore)
)

var seamNames = [...]string{"", "S1", "S2", "S3", "S4", "S5"}

// Span kinds. Client ops (S1, S2) use the op kinds; S3 and S4 the RPC
// kinds; S5 the store kinds.
const (
	opWrite uint8 = iota
	opRead
	opDelete
	opRepair
	opDrain
	nOpKinds
)

var opNames = [nOpKinds]string{"write", "read", "delete", "repair", "drain"}

const (
	rpcReadVersions uint8 = iota
	rpcReadChunk
	rpcPutChunk
	rpcPutIfFresher
	rpcCompareAndPut
	rpcCompareAndAdd
	rpcDeleteChunk
	rpcHasChunk
	rpcWipe
	rpcSetEpoch
	rpcEpochState
	nRPCKinds
)

var rpcNames = [nRPCKinds]string{
	"read_versions", "read_chunk", "put_chunk", "put_if_fresher", "compare_and_put",
	"compare_and_add", "delete_chunk", "has_chunk", "wipe", "set_epoch", "epoch_state",
}

const (
	storeGet uint8 = iota
	storePut
	storeDelete
	storeWipe
	// Group-commit mutations, timed from the stage call to the return of
	// the wait function: the whole durability cost, linger included.
	storePutStaged
	storeDeleteStaged
	storeWipeStaged
	nStoreKinds
)

var storeNames = [nStoreKinds]string{"get", "put", "delete", "wipe", "put_staged", "delete_staged", "wipe_staged"}

func spanName(s seam, kind uint8) string {
	switch s {
	case seamDriver, seamTenant:
		return seamNames[s] + "." + opNames[kind]
	case seamClient, seamNode:
		return seamNames[s] + "." + rpcNames[kind]
	default:
		return seamNames[s] + "." + storeNames[kind]
	}
}

// span is one timed call across a seam. Op is 0 until attribution
// (S4 and S5 sit behind a socket and learn their op from the S3 span
// that encloses them, see attribute).
type span struct {
	op         uint64
	seam       seam
	kind       uint8
	node       int16 // cluster node for S3..S5, client index for S1, -1 otherwise
	start, end int64 // ns since the tracer's epoch
	chunk      client.ChunkID
	bytes      int32 // chunk payload bytes carried (request data + response data)
	parent     int32 // index into the merged span list, -1 for none
}

// tracer collects spans in memory; nothing is written until the run
// ends. A nil *tracer is the untraced run: no decorator is installed.
type tracer struct {
	epoch time.Time
	on    atomic.Bool // spans are kept only while on (the window and the phases after it)

	nextOp   atomic.Uint64
	inflight atomic.Int64  // client ops in flight
	lastOp   atomic.Uint64 // most recently started client op
	current  [maxClients]atomic.Uint64
	owner    sync.Map // stripe id → index of the client that wrote it

	logs [spanShards]spanLog
}

const spanShards = 16

type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) rec(shard int, s span) {
	if !t.on.Load() {
		return
	}
	l := &t.logs[shard%spanShards]
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// drain returns every span recorded so far and forgets them.
func (t *tracer) drain() []span {
	var all []span
	for i := range t.logs {
		l := &t.logs[i]
		l.mu.Lock()
		all = append(all, l.spans...)
		l.spans = nil
		l.mu.Unlock()
	}
	return all
}

// opRef is what a context carries down from S1 (or S2): the client op
// and the client it belongs to.
type opRef struct {
	op     uint64
	client int
}

type opKey struct{}

// beginOp opens a client op (an S1 span in the making) and returns its
// id and a context carrying it.
func (t *tracer) beginOp(ctx context.Context, clientIdx int) (uint64, context.Context) {
	op := t.nextOp.Add(1)
	t.current[clientIdx].Store(op)
	t.lastOp.Store(op)
	t.inflight.Add(1)
	return op, context.WithValue(ctx, opKey{}, opRef{op, clientIdx})
}

func (t *tracer) endOp(clientIdx int) {
	t.inflight.Add(-1)
	t.current[clientIdx].Store(0)
}

// opOf resolves the client op an RPC on the given stripe belongs to.
// The op rides the context. Where the service tier detaches the context
// — chunk removal after Delete and after a migration cut-over runs on
// context.Background — the RPC belongs to the only op in flight if
// there is just one, else to the op in flight of the client that wrote
// the stripe: clients own disjoint keys, hence disjoint stripes, and
// every stripe is learnt from the PutChunk that created it.
func (t *tracer) opOf(ctx context.Context, stripe uint64, creates bool) uint64 {
	if ref, ok := ctx.Value(opKey{}).(opRef); ok {
		if creates {
			t.owner.Store(stripe, ref.client)
		}
		return ref.op
	}
	if t.inflight.Load() == 1 {
		return t.lastOp.Load()
	}
	if c, ok := t.owner.Load(stripe); ok {
		return t.current[c.(int)].Load()
	}
	return 0
}
