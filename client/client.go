package client

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Transport-level errors. Backends must return these (or errors
// wrapping them, testable with errors.Is) so the protocol can
// distinguish a fail-stopped node from a version conflict.
var (
	// ErrNodeDown reports a node that is fail-stopped or unreachable.
	ErrNodeDown = errors.New("client: node is down")
	// ErrNotFound reports a chunk the node does not store.
	ErrNotFound = errors.New("client: chunk not found")
	// ErrVersionMismatch is the failed conditional of CompareAndPut,
	// CompareAndAdd and PutChunkIfFresher: the stored version did not
	// match, and the chunk was left untouched.
	ErrVersionMismatch = errors.New("client: version mismatch")
	// ErrBadRequest reports a malformed request (bad slot index,
	// size-mismatched delta, empty version vector).
	ErrBadRequest = errors.New("client: malformed request")
	// ErrOverloaded is explicit backpressure: the serving side refused
	// to queue the request because its bounded queues (worker pool,
	// per-connection in-flight window) are full. The request was not
	// executed; retry after backing off. Both wire codecs carry it as
	// a dedicated status so pushback survives the network.
	ErrOverloaded = errors.New("client: server overloaded")
	// ErrQuotaExceeded reports a mutation that would push a tenant's
	// namespace past its configured object-count or byte quota. The
	// mutation was not applied; free space (Delete) or raise the
	// quota. Both wire codecs carry it as a dedicated status.
	ErrQuotaExceeded = errors.New("client: tenant quota exceeded")
	// ErrCorrupt reports content that fails checksum verification:
	// a node returns it when a stored chunk no longer matches its own
	// integrity metadata (bit-rot, truncation), and the read path
	// returns it when no uncorrupted decode of a block exists. Both
	// wire codecs carry it as a dedicated status.
	ErrCorrupt = errors.New("client: data corrupt")
)

// ChunkID names one shard of one stripe: Shard is the position within
// the stripe (0..n-1; positions < k hold original data blocks,
// positions ≥ k hold parity).
type ChunkID struct {
	// Stripe is the stripe the shard belongs to.
	Stripe uint64
	// Shard is the position within the stripe, 0..n-1.
	Shard int
}

// String renders the id as "stripe/shard".
func (id ChunkID) String() string { return fmt.Sprintf("%d/%d", id.Stripe, id.Shard) }

// NoVersion marks an absent or invalid version, mirroring the
// "version ← −1" sentinel of the paper's Algorithm 2.
const NoVersion = ^uint64(0)

// BlockSum is one entry of a cross-checksum record: the writer-side
// hash of one data block's content at one version. Nodes store the
// record as separate metadata next to a chunk — a data chunk carries
// one entry (its own block), a parity chunk carries k entries (one per
// data block folded into it) — and readers verify retrieved content
// against a majority of the records held by *other* nodes, which is
// what lets them reject a corrupt or lying shard before decoding. A
// zero Version marks an absent entry (no opinion).
type BlockSum struct {
	// Version is the data-block version the hash was computed at.
	Version uint64
	// Sum is the 64-bit content hash of the block at that version.
	Sum uint64
}

// Chunk is one stored shard plus its version bookkeeping (see the
// package comment for the data/parity version-vector model).
type Chunk struct {
	// Data is the shard's byte content.
	Data []byte
	// Versions is the shard's version vector: one entry for a data
	// chunk, k entries for a parity chunk.
	Versions []uint64
	// Sums is the chunk's cross-checksum record, parallel to Versions
	// (one entry per version slot); empty on backends predating
	// verified reads. Entries with Version 0 carry no opinion.
	Sums []BlockSum
}

// Clone deep-copies the chunk so backend-owned buffers never escape.
func (c Chunk) Clone() Chunk {
	return Chunk{
		Data:     append([]byte(nil), c.Data...),
		Versions: append([]uint64(nil), c.Versions...),
		Sums:     append([]BlockSum(nil), c.Sums...),
	}
}

// BreakerState is the circuit-breaker state of one node link, for
// transports that run a per-node breaker (see transport/tcp).
type BreakerState uint8

const (
	// BreakerClosed: the link is healthy; requests flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the link tripped; requests fast-fail without
	// touching the network until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; a limited number of
	// probe requests are admitted to test the node.
	BreakerHalfOpen
)

// String names the state for logs and dashboards.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("breaker(%d)", uint8(s))
	}
}

// LinkHealth is the client-observed health of one node link: breaker
// state, smoothed latency, and the resilience counters that explain
// why the breaker is where it is. Transports without a resilience
// layer report the zero value (closed breaker, no samples).
type LinkHealth struct {
	// Node is the cluster node index.
	Node int
	// Addr is the node's dial address ("" for in-process backends).
	Addr string
	// Breaker is the link's circuit-breaker state.
	Breaker BreakerState
	// EWMA is the exponentially weighted moving average of successful
	// round-trip latency on the link; 0 until the first sample.
	EWMA time.Duration
	// BreakerOpens counts closed→open transitions.
	BreakerOpens int64
	// FastFails counts requests rejected locally by an open breaker.
	FastFails int64
	// Retries counts transport-level retries spent on the link.
	Retries int64
}

// ResilienceStats aggregates a backend's resilience counters across
// all node links.
type ResilienceStats struct {
	// Enabled reports whether a resilience policy is active.
	Enabled bool
	// BreakerOpens counts closed→open transitions across all links.
	BreakerOpens int64
	// BreakerFastFails counts requests rejected by open breakers.
	BreakerFastFails int64
	// TransportRetries counts budgeted transport retries.
	TransportRetries int64
	// RetryBudgetSpent counts tokens withdrawn from the retry budget.
	RetryBudgetSpent int64
	// RetryBudgetDenied counts retries refused because the budget was
	// exhausted.
	RetryBudgetDenied int64
}

// NodeClient is the per-node RPC surface the protocol uses. The
// in-process simulator's *sim.Node and the TCP transport's
// *tcp.NodeClient implement it; external backends implement it over
// their own transport. All methods must be safe for concurrent use
// and must honour context cancellation.
// The mutation methods accept optional cross-checksum entries as a
// trailing variadic parameter so existing integrations keep compiling:
// zero entries means "no checksum opinion" (the node keeps whatever
// record it holds), the conditional single-slot operations take at most
// one entry (for the slot they touch), and the full-chunk puts take
// either one entry or one per version slot.
type NodeClient interface {
	// ReadChunk returns a copy of the chunk, or ErrNotFound; ErrCorrupt
	// when the stored content fails the node's own integrity check.
	ReadChunk(ctx context.Context, id ChunkID) (Chunk, error)
	// ReadVersions returns a copy of the chunk's version vector and
	// cross-checksum record (nil when the node holds none), or
	// ErrNotFound — the "u.version(id)" probe of Algorithms 1–2.
	ReadVersions(ctx context.Context, id ChunkID) ([]uint64, []BlockSum, error)
	// PutChunk stores a full chunk, replacing any previous value.
	PutChunk(ctx context.Context, id ChunkID, data []byte, versions []uint64, sums ...BlockSum) error
	// PutChunkIfFresher installs the chunk only when the proposed
	// version vector does not regress any stored slot
	// (componentwise ≥); otherwise ErrVersionMismatch.
	PutChunkIfFresher(ctx context.Context, id ChunkID, data []byte, versions []uint64, sums ...BlockSum) error
	// CompareAndPut overwrites the data only when version slot `slot`
	// holds expect, then sets it to next; otherwise
	// ErrVersionMismatch. The check and the write are atomic.
	CompareAndPut(ctx context.Context, id ChunkID, slot int, expect, next uint64, data []byte, sum ...BlockSum) error
	// CompareAndAdd XORs delta into the data when version slot `slot`
	// holds expect, then advances it to next — the conditional
	// "u.add(α_{i,j}·(x−chunk))" of Algorithm 1. The check and the
	// add are atomic.
	CompareAndAdd(ctx context.Context, id ChunkID, slot int, expect, next uint64, delta []byte, sum ...BlockSum) error
	// DeleteChunk removes a chunk; deleting a missing chunk is a
	// no-op.
	DeleteChunk(ctx context.Context, id ChunkID) error
}

// ChunkRemover is the optional node capability behind vectored chunk
// removal: DeleteChunks removes every listed chunk in one request, so
// dropping an object costs each node one message and one durable
// mutation batch however many of its stripes the node holds. Missing
// chunks are skipped, as with DeleteChunk. An error reports that some
// of the removals may not have happened; the caller counts every listed
// chunk as not removed. Coordinators type-assert for it, like
// EpochSetter, and fall back to one DeleteChunk per chunk on nodes that
// do not implement it. The ids slice is only valid for the duration of
// the call.
type ChunkRemover interface {
	// DeleteChunks removes every listed chunk; missing ones are
	// no-ops.
	DeleteChunks(ctx context.Context, ids []ChunkID) error
}

// DeleteChunks removes ids from node: in one request when the node is
// a ChunkRemover, else one DeleteChunk per id, attempting every one
// and returning the first error.
func DeleteChunks(ctx context.Context, node NodeClient, ids []ChunkID) error {
	if r, ok := node.(ChunkRemover); ok {
		return r.DeleteChunks(ctx, ids)
	}
	var first error
	for _, id := range ids {
		if err := node.DeleteChunk(ctx, id); err != nil && first == nil {
			first = err
		}
	}
	return first
}
