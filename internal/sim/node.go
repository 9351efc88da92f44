package sim

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"trapquorum/client"
	"trapquorum/internal/clock"
	"trapquorum/internal/memstore"
	"trapquorum/internal/nodeengine"
)

// NodeID identifies a storage node within a cluster.
type NodeID int

// DelayFunc models per-operation network+disk latency. A nil DelayFunc
// means zero latency (the default in tests).
type DelayFunc func(op string) time.Duration

// Metrics counts the operations a node served; it is the shared
// nodeengine counter block. The protocol counters are maintained by
// the node's engine, DownRejects and CtxAborts by the simulator's
// admission gate. All fields are safe for concurrent reads while the
// cluster runs.
type Metrics = nodeengine.Metrics

// Node is one simulated storage server: the transport-neutral
// nodeengine.Engine over an in-memory store, wrapped with what a
// simulated network adds — injected per-operation latency, fail-stop
// crash/restart switches, and cluster shutdown. All methods are safe
// for concurrent use — any number of callers may have requests in
// flight against one node at once; their injected latency windows
// overlap like network transit, and the operations themselves
// serialise at the engine, which is the per-node atomicity the
// protocol's conditional parity updates rely on.
//
// Node implements the public client.NodeClient transport contract,
// including context cancellation: an operation whose context expires
// before it reaches the engine (in particular, during injected
// latency) fails with the context's error and leaves the store
// untouched; once the engine accepts it, the operation runs to
// completion, like an RPC already on the wire.
type Node struct {
	id     NodeID
	engine *nodeengine.Engine
	delay  atomic.Pointer[DelayFunc]
	down   atomic.Bool
	// lying, when set, turns the node Byzantine on the read path: every
	// served chunk has its content silently altered after the engine's
	// own integrity checks passed, modelling a node that consistently
	// serves wrong bytes while its metadata stays plausible.
	lying atomic.Bool
	// link models the network path to this node (nil = perfect).
	link atomic.Pointer[linkState]
	quit chan struct{}
}

// LinkFault is the simulator's link-fault vocabulary, mirroring what
// internal/chaosnet does to real sockets so in-memory and TCP chaos
// suites script the same scenarios. The zero value is a perfect link.
type LinkFault struct {
	// ReqLoss is the probability a request vanishes on the way in: the
	// operation is never applied and the caller hangs until its
	// context ends — a stalled stream, not an error.
	ReqLoss float64
	// RespLoss is the probability the *response* vanishes after the
	// node applied the operation: the caller sees its context error
	// while the mutation took effect — the write-hole ambiguity real
	// networks force on clients.
	RespLoss float64
	// Refuse fails every operation instantly with ErrNodeDown, the
	// connection-refused half of a partition (the loud kind; use
	// ReqLoss=1 for the silent kind).
	Refuse bool
}

// zero reports whether the fault injects nothing.
func (f LinkFault) zero() bool { return f == LinkFault{} }

// linkState carries one node's fault set plus its deterministic dice.
type linkState struct {
	f   LinkFault
	mu  sync.Mutex
	rng *rand.Rand
}

// roll draws one deterministic probability decision.
func (ls *linkState) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	ls.mu.Lock()
	hit := ls.rng.Float64() < p
	ls.mu.Unlock()
	return hit
}

// SetLinkFault installs (or, with the zero fault, removes) the fault
// model of the network path to this node. seed makes the loss rolls
// deterministic. Safe while operations are in flight; operations
// already past the gate keep the old model.
func (n *Node) SetLinkFault(f LinkFault, seed int64) {
	if f.zero() {
		n.link.Store(nil)
		return
	}
	n.link.Store(&linkState{f: f, rng: rand.New(rand.NewSource(seed))})
}

// Compile-time transport conformance.
var _ client.NodeClient = (*Node)(nil)

// newNode builds a node around a fresh engine+memstore.
func newNode(id NodeID, delay DelayFunc) *Node {
	n := &Node{
		id:     id,
		engine: nodeengine.New(memstore.New(), nodeengine.WithName(nodeName(id))),
		quit:   make(chan struct{}),
	}
	n.SetDelay(delay)
	return n
}

func nodeName(id NodeID) string { return fmt.Sprintf("node %d", id) }

// SetDelay installs (or, with nil, removes) this node's latency model,
// replacing any cluster-wide model for this node. Safe to call while
// operations are in flight; calls already inside their delay window
// keep the old model. Used to turn one node into a straggler for
// tail-latency and hedging experiments.
func (n *Node) SetDelay(d DelayFunc) {
	if d == nil {
		n.delay.Store(nil)
		return
	}
	n.delay.Store(&d)
}

// gate is the simulated network in front of the engine: it rejects
// operations on a closed cluster or a crashed node, then serves the
// injected latency window, during which cancellation and shutdown are
// still honoured. A nil error means the engine may run the operation.
func (n *Node) gate(ctx context.Context, op string) error {
	select {
	case <-n.quit:
		return ErrClusterClosed
	default:
	}
	if err := ctx.Err(); err != nil {
		n.engine.Metrics().CtxAborts.Add(1)
		return err
	}
	if n.down.Load() {
		// Fail-stop: a crashed node answers nothing; the caller's
		// transport surfaces ErrNodeDown.
		n.engine.Metrics().DownRejects.Add(1)
		return ErrNodeDown
	}
	if ls := n.link.Load(); ls != nil {
		if ls.f.Refuse {
			// Connection refused: the loud partition — instant
			// transport failure, indistinguishable from fail-stop.
			n.engine.Metrics().DownRejects.Add(1)
			return ErrNodeDown
		}
		if ls.roll(ls.f.ReqLoss) {
			// The request died in transit: the node never sees it and
			// the caller hangs until its own deadline, exactly like a
			// stalled TCP stream.
			select {
			case <-ctx.Done():
				n.engine.Metrics().CtxAborts.Add(1)
				return ctx.Err()
			case <-n.quit:
				return ErrClusterClosed
			}
		}
	}
	if dp := n.delay.Load(); dp != nil {
		if d := (*dp)(op); d > 0 {
			woke := make(chan struct{})
			t := clock.Real{}.AfterFunc(d, func() { close(woke) })
			select {
			case <-woke:
			case <-ctx.Done():
				t.Stop()
				n.engine.Metrics().CtxAborts.Add(1)
				return ctx.Err()
			case <-n.quit:
				t.Stop()
				return ErrClusterClosed
			}
			// Fail-stop can land while the request is in flight:
			// re-check at "accept time", after the latency window,
			// like the actor loop used to — a node crashed mid-delay
			// must answer nothing.
			if n.down.Load() {
				n.engine.Metrics().DownRejects.Add(1)
				return ErrNodeDown
			}
		}
	}
	// The stale-epoch guard runs at accept time, after the latency
	// window — where the TCP server checks it when the request frame is
	// handled. The retired watermark only grows, so a request delayed
	// past a cutover is fenced exactly as it would be on a real node.
	if tag := client.EpochFromContext(ctx); tag != 0 {
		if err := n.engine.EpochGuard(tag); err != nil {
			return err
		}
	}
	return nil
}

// respGate models the response's trip back: with probability RespLoss
// the answer vanishes after the engine applied the operation, so the
// caller blocks until its context ends while the mutation stands —
// the ambiguity window the protocol's rollback/repair layers absorb.
func (n *Node) respGate(ctx context.Context) error {
	ls := n.link.Load()
	if ls == nil || !ls.roll(ls.f.RespLoss) {
		return nil
	}
	select {
	case <-ctx.Done():
		n.engine.Metrics().CtxAborts.Add(1)
		return ctx.Err()
	case <-n.quit:
		return ErrClusterClosed
	}
}

// Probe is the health monitor's transport probe: it crosses the same
// admission gate and link faults as real operations (so a partitioned
// or stalled link drives health transitions) and serves the injected
// latency window (so a straggler's probes are slow, feeding brownout
// detection), but touches no store state.
func (n *Node) Probe(ctx context.Context) error {
	if err := n.gate(ctx, "probe"); err != nil {
		return err
	}
	return n.respGate(ctx)
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// Metrics exposes the node's operation counters.
func (n *Node) Metrics() *Metrics { return n.engine.Metrics() }

// Engine exposes the node's protocol engine (diagnostics and tests).
func (n *Node) Engine() *nodeengine.Engine { return n.engine }

// Down reports whether the node is currently failed.
func (n *Node) Down() bool { return n.down.Load() }

// SetReadCorrupt turns the node into a persistent liar (true) or back
// into an honest node (false): while set, every ReadChunk response has
// its first data byte flipped after the engine's integrity checks, so
// the node's own metadata never betrays it — only the cross-checksum
// records its peers hold can. Fault-injection surface for Byzantine
// chaos tests.
func (n *Node) SetReadCorrupt(lying bool) { n.lying.Store(lying) }

// Crash fail-stops the node: every subsequent operation fails with
// ErrNodeDown until Restart. Stored chunks survive (disks outlive
// crashes); use Wipe for media loss.
func (n *Node) Crash() { n.down.Store(true) }

// Restart brings a crashed node back with its stored chunks intact.
func (n *Node) Restart() { n.down.Store(false) }

// Wipe erases the node's store, simulating media loss. The node must
// be up; typically used right after Restart to model a replaced disk
// before the repair protocol refills it.
func (n *Node) Wipe(ctx context.Context) error {
	if err := n.gate(ctx, "wipe"); err != nil {
		return err
	}
	return n.engine.Wipe(ctx)
}

// ReadChunk returns a deep copy of the chunk, or ErrNotFound.
func (n *Node) ReadChunk(ctx context.Context, id ChunkID) (Chunk, error) {
	if err := n.gate(ctx, "read"); err != nil {
		n.engine.Metrics().Reads.Add(1)
		return Chunk{}, err
	}
	chunk, err := n.engine.ReadChunk(ctx, id)
	if err == nil && n.lying.Load() && len(chunk.Data) > 0 {
		// The lie happens on the served copy, after the engine's own
		// checks: versions and record look perfectly healthy, only the
		// bytes are wrong — the case self-sums cannot catch.
		chunk.Data[0] ^= 0xa5
	}
	if gerr := n.respGate(ctx); gerr != nil {
		return Chunk{}, gerr
	}
	return chunk, err
}

// ReadVersions returns a copy of the chunk's version vector and
// cross-checksum record, or ErrNotFound. This is the "u.version(id)"
// probe of Algorithms 1–2.
func (n *Node) ReadVersions(ctx context.Context, id ChunkID) ([]uint64, []client.BlockSum, error) {
	if err := n.gate(ctx, "version"); err != nil {
		n.engine.Metrics().VersionQueries.Add(1)
		return nil, nil, err
	}
	versions, sums, err := n.engine.ReadVersions(ctx, id)
	if gerr := n.respGate(ctx); gerr != nil {
		return nil, nil, gerr
	}
	return versions, sums, err
}

// PutChunk stores a full chunk (data plus version vector), replacing
// any previous value. Used for data-block writes, bootstrap and
// repair. The inputs are copied.
func (n *Node) PutChunk(ctx context.Context, id ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	if err := n.gate(ctx, "write"); err != nil {
		n.engine.Metrics().Writes.Add(1)
		return err
	}
	err := n.engine.PutChunk(ctx, id, data, versions, sums...)
	if gerr := n.respGate(ctx); gerr != nil {
		return gerr
	}
	return err
}

// CompareAndPut overwrites the chunk's data only when version slot
// `slot` currently holds expect, then sets it to next. It returns
// ErrVersionMismatch otherwise. Used by data nodes so that a delayed
// stale writer cannot clobber a newer block.
func (n *Node) CompareAndPut(ctx context.Context, id ChunkID, slot int, expect, next uint64, data []byte, sum ...client.BlockSum) error {
	if err := n.gate(ctx, "write"); err != nil {
		n.engine.Metrics().Writes.Add(1)
		return err
	}
	err := n.engine.CompareAndPut(ctx, id, slot, expect, next, data, sum...)
	if gerr := n.respGate(ctx); gerr != nil {
		return gerr
	}
	return err
}

// CompareAndAdd XORs delta into the chunk's data when version slot
// `slot` currently holds expect, then advances the slot to next —
// the conditional "u.add(α_{i,j}·(x−chunk))" of Algorithm 1 lines
// 26–28. A mismatch (stale or too-new parity) yields
// ErrVersionMismatch and leaves the chunk untouched.
func (n *Node) CompareAndAdd(ctx context.Context, id ChunkID, slot int, expect, next uint64, delta []byte, sum ...client.BlockSum) error {
	if err := n.gate(ctx, "add"); err != nil {
		n.engine.Metrics().Adds.Add(1)
		return err
	}
	err := n.engine.CompareAndAdd(ctx, id, slot, expect, next, delta, sum...)
	if gerr := n.respGate(ctx); gerr != nil {
		return gerr
	}
	return err
}

// PutChunkIfFresher installs a chunk only when it does not regress any
// version slot of an existing chunk: the proposed version vector must
// be componentwise ≥ the stored one (a missing chunk always accepts;
// an identical vector rewrites the chunk with the caller's bytes — see
// nodeengine.PutChunkIfFresher). Repair uses this so that a rebuild
// gathered before a concurrent write cannot overwrite the write's
// newer state; the mismatch surfaces as ErrVersionMismatch and the
// repair is retried.
func (n *Node) PutChunkIfFresher(ctx context.Context, id ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	if err := n.gate(ctx, "write"); err != nil {
		n.engine.Metrics().Writes.Add(1)
		return err
	}
	err := n.engine.PutChunkIfFresher(ctx, id, data, versions, sums...)
	if gerr := n.respGate(ctx); gerr != nil {
		return gerr
	}
	return err
}

// DeleteChunk removes a chunk. Deleting a missing chunk is a no-op,
// mirroring idempotent deletion (used by garbage collection and by
// failure-injection tests).
func (n *Node) DeleteChunk(ctx context.Context, id ChunkID) error {
	if err := n.gate(ctx, "delete"); err != nil {
		return err
	}
	err := n.engine.DeleteChunk(ctx, id)
	if gerr := n.respGate(ctx); gerr != nil {
		return gerr
	}
	return err
}

// DeleteChunks removes every listed chunk in one request
// (client.ChunkRemover): one admission gate and one response trip for
// the whole frame, like a vectored RPC on the wire.
func (n *Node) DeleteChunks(ctx context.Context, ids []ChunkID) error {
	if err := n.gate(ctx, "delete"); err != nil {
		return err
	}
	err := n.engine.DeleteChunks(ctx, ids)
	if gerr := n.respGate(ctx); gerr != nil {
		return gerr
	}
	return err
}

// SetEpoch durably records the cluster's epoch watermarks and
// placement blob on this node (see client.EpochSetter). It crosses the
// same admission gate and link faults as real operations, so a crashed
// or partitioned node misses the broadcast exactly as a real fleet
// member would.
func (n *Node) SetEpoch(ctx context.Context, installed, retired uint64, blob []byte) error {
	if err := n.gate(ctx, "epoch"); err != nil {
		return err
	}
	err := n.engine.SetEpoch(ctx, installed, retired, blob)
	if gerr := n.respGate(ctx); gerr != nil {
		return gerr
	}
	return err
}

// EpochState reads back the node's persisted epoch watermarks and
// placement blob (see client.EpochSetter).
func (n *Node) EpochState(ctx context.Context) (installed, retired uint64, blob []byte, err error) {
	if err := n.gate(ctx, "epoch"); err != nil {
		return 0, 0, nil, err
	}
	installed, retired, blob, err = n.engine.EpochState(ctx)
	if gerr := n.respGate(ctx); gerr != nil {
		return 0, 0, nil, gerr
	}
	return installed, retired, blob, err
}

// Compile-time conformance with the optional reconfiguration and
// vectored-removal surfaces.
var (
	_ client.EpochSetter  = (*Node)(nil)
	_ client.ChunkRemover = (*Node)(nil)
)

// HasChunk reports whether the node stores the chunk.
func (n *Node) HasChunk(ctx context.Context, id ChunkID) (bool, error) {
	if err := n.gate(ctx, "stat"); err != nil {
		return false, err
	}
	ok, err := n.engine.HasChunk(ctx, id)
	if gerr := n.respGate(ctx); gerr != nil {
		return false, gerr
	}
	return ok, err
}

// stop marks the cluster closed for this node. Called by
// Cluster.Close.
func (n *Node) stop() {
	select {
	case <-n.quit:
	default:
		close(n.quit)
	}
}
