// Package nodeengine implements the storage-node side of the TRAP-ERC
// protocol once, independently of any transport: the chunk table with
// its version vectors and the atomic conditional operations of
// Algorithms 1–2 (CompareAndPut, CompareAndAdd, PutChunkIfFresher),
// plus the unconditional put/read/delete/wipe surface.
//
// An Engine implements the full client.NodeClient semantics over a
// pluggable ChunkStore, so every deployment shape shares the same
// protocol state machine and differs only in how requests arrive and
// where chunks rest:
//
//   - the in-process simulator (internal/sim) wraps an Engine with
//     injected latency and fail-stop fault injection;
//   - the TCP node server (transport/tcp) serves an Engine over real
//     sockets, as run by the cmd/trapnode daemon;
//   - memstore keeps chunks in memory, diskstore makes every mutation
//     durable on disk.
//
// The engine serialises all operations with an internal lock — that
// per-node atomicity is what the protocol's conditional parity updates
// rely on — so a ChunkStore never sees concurrent calls and needs no
// locking of its own.
//
// # Integrity metadata
//
// Every chunk carries a Meta block, stored separately from the data it
// covers (see DESIGN.md §6): a self-sum — the engine's own hash of the
// chunk bytes, recomputed on every mutation and verified on every
// content read, so bit-rot on an honest node surfaces as
// client.ErrCorrupt at the source — and the cross-checksum record the
// writers distribute (client.BlockSum entries, themselves guarded by a
// hash of the record vector so corrupt metadata is dropped rather than
// trusted). The record is what lets *readers* convict a node that lies
// consistently: such a node forges its own metadata, but not the
// copies its peers hold.
package nodeengine

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"trapquorum/client"
	"trapquorum/internal/blockpool"
	"trapquorum/internal/chunkmeta"
	"trapquorum/internal/erasure"
	"trapquorum/internal/gf256"
)

// Meta is the integrity metadata stored beside a chunk: the node's own
// content hash plus the writer-distributed cross-checksum record.
// Stores persist it opaquely; the type lives in internal/chunkmeta so
// stores can reference it without importing this package.
type Meta = chunkmeta.Meta

// ChunkStore is the persistence layer under an Engine: a mapping from
// chunk id to (data, version vector, integrity metadata). The engine
// serialises every call, so implementations need no internal locking;
// they decide only where the bytes live (memory, disk) and what
// "durable" means. A mutation (Put, Delete, Wipe) must be durable by
// the time it returns — the engine acknowledges the operation to the
// protocol immediately after.
type ChunkStore interface {
	// Get returns the chunk stored under id, or ok == false. The
	// returned slices are owned by the store: the caller must not
	// mutate them, and they are only valid until the next mutating
	// call for the same id. A store that detects its copy is damaged
	// (a quarantined on-disk chunk) returns an error wrapping
	// client.ErrCorrupt.
	Get(id client.ChunkID) (data []byte, versions []uint64, meta Meta, ok bool, err error)
	// Put stores the chunk, replacing any previous value (including a
	// corrupt one). The store copies all slices; the caller keeps
	// ownership of its buffers.
	Put(id client.ChunkID, data []byte, versions []uint64, meta Meta) error
	// Delete removes the chunk. Deleting a missing chunk is a no-op.
	Delete(id client.ChunkID) error
	// Wipe removes every chunk (media replacement).
	Wipe() error
	// Len reports how many chunks are stored.
	Len() (int, error)
	// Close releases the store's resources. Mutations are durable
	// when they return, so Close has nothing to flush.
	Close() error
}

// BatchStore is the optional group-commit surface of a ChunkStore.
// The staged variants record the mutation (immediately visible to the
// engine's serialised reads) and return a wait function that blocks
// until the mutation is durable. The engine stages under its lock and
// waits after releasing it, so concurrent mutations pile into one
// batch and share a single fsync instead of each paying their own.
// Batching reports whether the store is actually operating in that
// mode; a store that implements the interface but reports false is
// driven through the plain synchronous ChunkStore calls.
type BatchStore interface {
	ChunkStore
	Batching() bool
	PutBatched(id client.ChunkID, data []byte, versions []uint64, meta Meta) (wait func() error, err error)
	DeleteBatched(id client.ChunkID) (wait func() error, err error)
	WipeBatched() (wait func() error, err error)
}

// Scanner is the optional at-rest audit surface of a ChunkStore: Scan
// re-verifies the durable copies (not a cached mirror) and returns the
// ids found corrupt, quarantining them so subsequent reads fail with
// client.ErrCorrupt until a repair rewrites them. The diskstore
// implements it; a purely in-memory store has no colder copy to check
// and need not.
type Scanner interface {
	Scan() ([]client.ChunkID, error)
}

// Metrics counts the operations an engine served. The protocol
// counters (reads, writes, adds, version queries/rejects, corrupt
// rejects, served operations) are maintained by the engine itself; the
// transport counters DownRejects and CtxAborts are maintained by
// whatever wraps the engine (the simulator's fail-stop switch, a
// network server's admission path). All fields are safe for concurrent
// reads while the engine runs.
type Metrics struct {
	Reads            atomic.Int64
	Writes           atomic.Int64
	Adds             atomic.Int64
	VersionQueries   atomic.Int64
	VersionRejects   atomic.Int64
	CorruptRejects   atomic.Int64
	DownRejects      atomic.Int64
	CtxAborts        atomic.Int64
	ServedOperations atomic.Int64
}

// Engine is the transport-neutral node runtime. It is safe for
// concurrent use; operations serialise on an internal lock, giving the
// per-node atomicity the protocol's conditional updates require.
//
// Context handling: an engine operation whose context is already
// cancelled on entry fails with the context's error and leaves the
// store untouched; once an operation starts it runs to completion and
// reports its real outcome. Transports layer their own cancellation
// windows (latency injection, sockets) on top, after which a context
// error no longer says whether the operation applied (the client
// contract calls that outcome in doubt).
type Engine struct {
	name       string
	mu         sync.Mutex
	store      ChunkStore
	batch      BatchStore        // non-nil when store group-commits (see BatchStore)
	scratch    []uint64          // version-vector scratch, guarded by mu
	recScratch []client.BlockSum // record staging scratch, guarded by mu
	recBytes   []byte            // record hashing scratch, guarded by mu
	metrics    Metrics

	// Cached placement-epoch guard state (see epoch.go): the retired
	// watermark EpochGuard checks on every tagged operation, lazily
	// primed from the store's reserved epoch chunk.
	epochRetired atomic.Uint64
	epochLoaded  atomic.Bool
}

// Compile-time conformance with the public transport contract.
var (
	_ client.NodeClient   = (*Engine)(nil)
	_ client.ChunkRemover = (*Engine)(nil)
)

// Option customises an Engine.
type Option func(*Engine)

// WithName sets the label the engine uses in error messages (for
// example "node 3" or a listen address). The default is "node".
func WithName(name string) Option {
	return func(e *Engine) { e.name = name }
}

// New builds an engine over the given store. The caller hands the
// store to the engine; Close closes it.
func New(store ChunkStore, opts ...Option) *Engine {
	e := &Engine{name: "node", store: store}
	if bs, ok := store.(BatchStore); ok && bs.Batching() {
		e.batch = bs
	}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Name returns the engine's error-message label.
func (e *Engine) Name() string { return e.name }

// Metrics exposes the engine's operation counters.
func (e *Engine) Metrics() *Metrics { return &e.metrics }

// Close closes the underlying store. The engine is unusable
// afterwards.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.store.Close()
}

// begin is the common entry gate: it rejects an already-expired
// context, then takes the engine lock and counts the operation.
func (e *Engine) begin(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		e.metrics.CtxAborts.Add(1)
		return err
	}
	e.mu.Lock()
	e.metrics.ServedOperations.Add(1)
	return nil
}

// mutate runs a staging body under the engine lock, releases the lock,
// and then blocks on the durability wait the body returned (if any).
// The caller must have passed begin already, so the lock is held on
// entry; it is always released before mutate returns. Bodies stage
// through stagePut/stageDelete/stageWipe — on a batching store the
// store call under the lock only stages (copying every input), so the
// fsync happens outside the engine lock and concurrent mutations share
// it; on a plain store the call is the synchronous durability point
// and wait comes back nil.
func (e *Engine) mutate(body func() (wait func() error, err error)) error {
	wait, err := body()
	e.mu.Unlock()
	if err != nil {
		return err
	}
	if wait != nil {
		return wait()
	}
	return nil
}

// stagePut commits chunk state through the store's batching surface
// when it has one, else synchronously. Caller holds mu; all slices are
// copied before return.
func (e *Engine) stagePut(id client.ChunkID, data []byte, versions []uint64, meta Meta) (func() error, error) {
	if e.batch != nil {
		return e.batch.PutBatched(id, data, versions, meta)
	}
	return nil, e.store.Put(id, data, versions, meta)
}

// stageDelete is the delete twin of stagePut.
func (e *Engine) stageDelete(id client.ChunkID) (func() error, error) {
	if e.batch != nil {
		return e.batch.DeleteBatched(id)
	}
	return nil, e.store.Delete(id)
}

// stageWipe is the wipe twin of stagePut.
func (e *Engine) stageWipe() (func() error, error) {
	if e.batch != nil {
		return e.batch.WipeBatched()
	}
	return nil, e.store.Wipe()
}

// sumRecord hashes the encoded record entries; the separate hash is
// what makes the checksum vector self-verifying. Caller holds mu.
func (e *Engine) sumRecord(rec []client.BlockSum) uint64 {
	buf := e.recBytes[:0]
	for _, s := range rec {
		buf = binary.LittleEndian.AppendUint64(buf, s.Version)
		buf = binary.LittleEndian.AppendUint64(buf, s.Sum)
	}
	e.recBytes = buf[:0]
	return erasure.Sum64(buf)
}

// liveRec returns the record when its guard hash verifies, nil
// otherwise — corrupt metadata is dropped, never served. Caller holds
// mu.
func (e *Engine) liveRec(meta Meta) []client.BlockSum {
	if len(meta.Rec) == 0 || e.sumRecord(meta.Rec) != meta.RecSum {
		return nil
	}
	return meta.Rec
}

// checkSelf verifies the chunk's data against its self-sum; a mismatch
// is bit-rot caught at the source. Caller holds mu.
func (e *Engine) checkSelf(id client.ChunkID, data []byte, meta Meta) error {
	if meta.HasSelf && erasure.Sum64(data) != meta.Self {
		e.metrics.CorruptRejects.Add(1)
		return fmt.Errorf("%w: %s on %s fails self-checksum", client.ErrCorrupt, id, e.name)
	}
	return nil
}

// stageRec merges incoming checksum entries into the stored record and
// returns the record to persist (a scratch slice, valid until the next
// engine operation). nslots is the new version-vector length; slot
// addresses the entry a single-sum conditional update refers to, and is
// negative for the full-chunk puts (where a single entry is only
// meaningful when the chunk has one slot). Caller holds mu.
func (e *Engine) stageRec(old []client.BlockSum, nslots int, sums []client.BlockSum, slot int) ([]client.BlockSum, error) {
	if len(sums) == 0 && len(old) == 0 {
		return nil, nil
	}
	if len(sums) > 1 && len(sums) != nslots {
		return nil, fmt.Errorf("%w: %d checksum entries for %d version slots", client.ErrBadRequest, len(sums), nslots)
	}
	rec := e.recScratch[:0]
	for i := 0; i < nslots; i++ {
		var entry client.BlockSum
		if len(old) == nslots {
			entry = old[i]
		}
		rec = append(rec, entry)
	}
	e.recScratch = rec[:0]
	switch {
	case len(sums) == nslots:
		for i, s := range sums {
			if s.Version != 0 {
				rec[i] = s
			}
		}
	case len(sums) == 1:
		at := slot
		if at < 0 {
			return nil, fmt.Errorf("%w: single checksum entry for %d version slots", client.ErrBadRequest, nslots)
		}
		if sums[0].Version != 0 {
			rec[at] = sums[0]
		}
	}
	return rec, nil
}

// stageMeta assembles the metadata persisted with a mutation: a fresh
// self-sum over the new data plus the merged record. Caller holds mu.
func (e *Engine) stageMeta(data []byte, rec []client.BlockSum) Meta {
	m := Meta{Self: erasure.Sum64(data), HasSelf: true}
	if len(rec) > 0 {
		m.Rec = rec
		m.RecSum = e.sumRecord(rec)
	}
	return m
}

// ReadChunk returns a deep copy of the chunk, or client.ErrNotFound;
// content failing the self-checksum returns client.ErrCorrupt.
func (e *Engine) ReadChunk(ctx context.Context, id client.ChunkID) (client.Chunk, error) {
	e.metrics.Reads.Add(1)
	if err := e.begin(ctx); err != nil {
		return client.Chunk{}, err
	}
	defer e.mu.Unlock()
	data, versions, meta, ok, err := e.store.Get(id)
	if err != nil {
		return client.Chunk{}, err
	}
	if !ok {
		return client.Chunk{}, e.notFound(id)
	}
	if err := e.checkSelf(id, data, meta); err != nil {
		return client.Chunk{}, err
	}
	return client.Chunk{
		Data:     append([]byte(nil), data...),
		Versions: append([]uint64(nil), versions...),
		Sums:     append([]client.BlockSum(nil), e.liveRec(meta)...),
	}, nil
}

// ReadVersions returns a copy of the chunk's version vector and
// cross-checksum record, or client.ErrNotFound. This is the
// "u.version(id)" probe of Algorithms 1–2; it stays a metadata-only
// operation — the data bytes are not hashed here, so probing cannot
// regress to content-read cost — but a store-level quarantine (cold
// bit-rot found by a disk scan) still surfaces as client.ErrCorrupt.
func (e *Engine) ReadVersions(ctx context.Context, id client.ChunkID) ([]uint64, []client.BlockSum, error) {
	e.metrics.VersionQueries.Add(1)
	if err := e.begin(ctx); err != nil {
		return nil, nil, err
	}
	defer e.mu.Unlock()
	_, versions, meta, ok, err := e.store.Get(id)
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		return nil, nil, e.notFound(id)
	}
	var sums []client.BlockSum
	if rec := e.liveRec(meta); len(rec) > 0 {
		sums = append(sums, rec...)
	}
	return append([]uint64(nil), versions...), sums, nil
}

// PutChunk stores a full chunk (data plus version vector), replacing
// any previous value — including a corrupt one, which is how repair
// clears a quarantine. Used for data-block writes, bootstrap and
// repair. The inputs are copied.
func (e *Engine) PutChunk(ctx context.Context, id client.ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	e.metrics.Writes.Add(1)
	if len(versions) == 0 {
		return fmt.Errorf("%w: PutChunk needs at least one version", client.ErrBadRequest)
	}
	if err := e.begin(ctx); err != nil {
		return err
	}
	return e.mutate(func() (func() error, error) {
		var old []client.BlockSum
		if _, _, meta, ok, err := e.store.Get(id); err == nil && ok {
			old = e.liveRec(meta)
		}
		rec, err := e.stageRec(old, len(versions), sums, -1)
		if err != nil {
			return nil, err
		}
		return e.stagePut(id, data, versions, e.stageMeta(data, rec))
	})
}

// CompareAndPut overwrites the chunk's data only when version slot
// `slot` currently holds expect, then sets it to next. It returns
// client.ErrVersionMismatch otherwise. Used by data nodes so that a
// delayed stale writer cannot clobber a newer block. The check and the
// write are atomic under the engine lock.
func (e *Engine) CompareAndPut(ctx context.Context, id client.ChunkID, slot int, expect, next uint64, data []byte, sum ...client.BlockSum) error {
	e.metrics.Writes.Add(1)
	if len(sum) > 1 {
		return fmt.Errorf("%w: CompareAndPut takes at most one checksum entry", client.ErrBadRequest)
	}
	if err := e.begin(ctx); err != nil {
		return err
	}
	return e.mutate(func() (func() error, error) {
		_, versions, meta, ok, err := e.store.Get(id)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, e.notFound(id)
		}
		if slot < 0 || slot >= len(versions) {
			return nil, fmt.Errorf("%w: version slot %d of %d", client.ErrBadRequest, slot, len(versions))
		}
		if versions[slot] != expect {
			e.metrics.VersionRejects.Add(1)
			return nil, fmt.Errorf("%w: slot %d holds %d, expected %d", client.ErrVersionMismatch, slot, versions[slot], expect)
		}
		rec, err := e.stageRec(e.liveRec(meta), len(versions), sum, slot)
		if err != nil {
			return nil, err
		}
		newMeta := e.stageMeta(data, rec)
		vers := e.stageVersions(versions)
		vers[slot] = next
		return e.stagePut(id, data, vers, newMeta)
	})
}

// CompareAndAdd XORs delta into the chunk's data when version slot
// `slot` currently holds expect, then advances the slot to next — the
// conditional "u.add(α_{i,j}·(x−chunk))" of Algorithm 1 lines 26–28.
// A mismatch (stale or too-new parity) yields
// client.ErrVersionMismatch and leaves the chunk untouched; content
// failing the self-checksum yields client.ErrCorrupt, because folding
// a delta into rotten parity would launder the corruption into a
// well-versioned chunk.
func (e *Engine) CompareAndAdd(ctx context.Context, id client.ChunkID, slot int, expect, next uint64, delta []byte, sum ...client.BlockSum) error {
	e.metrics.Adds.Add(1)
	if len(sum) > 1 {
		return fmt.Errorf("%w: CompareAndAdd takes at most one checksum entry", client.ErrBadRequest)
	}
	if err := e.begin(ctx); err != nil {
		return err
	}
	return e.mutate(func() (func() error, error) {
		data, versions, meta, ok, err := e.store.Get(id)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, e.notFound(id)
		}
		if slot < 0 || slot >= len(versions) {
			return nil, fmt.Errorf("%w: version slot %d of %d", client.ErrBadRequest, slot, len(versions))
		}
		if len(delta) != len(data) {
			return nil, fmt.Errorf("%w: delta size %d, chunk size %d", client.ErrBadRequest, len(delta), len(data))
		}
		if versions[slot] != expect {
			e.metrics.VersionRejects.Add(1)
			return nil, fmt.Errorf("%w: slot %d holds %d, expected %d", client.ErrVersionMismatch, slot, versions[slot], expect)
		}
		if err := e.checkSelf(id, data, meta); err != nil {
			return nil, err
		}
		rec, err := e.stageRec(e.liveRec(meta), len(versions), sum, slot)
		if err != nil {
			return nil, err
		}
		// The summed bytes are staged in a pooled buffer so the store's
		// current data stays untouched until Put commits the mutation —
		// a durable store that fails mid-write must not have corrupted
		// its in-memory view. The store copies at stage time, so the
		// buffer goes back to the pool before the durability wait.
		acc := blockpool.GetBlock(len(data))
		copy(acc.B, data)
		gf256.XorSlice(acc.B, delta)
		newMeta := e.stageMeta(acc.B, rec)
		vers := e.stageVersions(versions)
		vers[slot] = next
		wait, err := e.stagePut(id, acc.B, vers, newMeta)
		acc.Release()
		return wait, err
	})
}

// PutChunkIfFresher installs a chunk only when it does not regress any
// version slot of an existing chunk: the proposed version vector must
// be componentwise ≥ the stored one (a missing chunk always accepts).
// An identical vector is accepted too, and the chunk is rewritten in
// full, durably, like any other install — same versions, the caller's
// bytes — which is what lets a same-version repair replace bytes that
// rotted or that a liar serves. Repair uses this so that a rebuild
// gathered before a concurrent write cannot overwrite the write's
// newer state; the mismatch surfaces as client.ErrVersionMismatch and
// the repair is retried. A stored chunk the store reports corrupt
// accepts any install — the repair's rebuild is strictly better than
// quarantined rot.
func (e *Engine) PutChunkIfFresher(ctx context.Context, id client.ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	e.metrics.Writes.Add(1)
	if len(versions) == 0 {
		return fmt.Errorf("%w: PutChunkIfFresher needs at least one version", client.ErrBadRequest)
	}
	if err := e.begin(ctx); err != nil {
		return err
	}
	return e.mutate(func() (func() error, error) {
		var old []client.BlockSum
		_, stored, meta, ok, err := e.store.Get(id)
		if err != nil {
			if !isCorrupt(err) {
				return nil, err
			}
			ok = false // quarantined: treat as absent so the rebuild lands
		}
		if ok {
			if len(stored) != len(versions) {
				return nil, fmt.Errorf("%w: version vector length %d vs stored %d", client.ErrBadRequest, len(versions), len(stored))
			}
			for slot, v := range stored {
				if versions[slot] < v {
					e.metrics.VersionRejects.Add(1)
					return nil, fmt.Errorf("%w: slot %d would regress %d -> %d", client.ErrVersionMismatch, slot, v, versions[slot])
				}
			}
			old = e.liveRec(meta)
		}
		rec, err := e.stageRec(old, len(versions), sums, -1)
		if err != nil {
			return nil, err
		}
		return e.stagePut(id, data, versions, e.stageMeta(data, rec))
	})
}

// DeleteChunk removes a chunk. Deleting a missing chunk is a no-op,
// mirroring idempotent deletion (used by garbage collection and by
// failure-injection tests).
func (e *Engine) DeleteChunk(ctx context.Context, id client.ChunkID) error {
	if err := e.begin(ctx); err != nil {
		return err
	}
	return e.mutate(func() (func() error, error) {
		return e.stageDelete(id)
	})
}

// DeleteChunks removes every listed chunk (client.ChunkRemover). All
// the removals stage under one hold of the engine lock, so on a
// group-commit store they join the open batch together and share its
// fsync, and the call returns once every one of them is durable.
// Missing chunks are no-ops, as in DeleteChunk.
func (e *Engine) DeleteChunks(ctx context.Context, ids []client.ChunkID) error {
	if err := e.begin(ctx); err != nil {
		return err
	}
	waits := make([]func() error, 0, len(ids))
	err := e.mutate(func() (func() error, error) {
		for _, id := range ids {
			wait, err := e.stageDelete(id)
			if err != nil {
				return nil, err
			}
			if wait != nil {
				waits = append(waits, wait)
			}
		}
		return nil, nil
	})
	if err != nil {
		return err
	}
	for _, wait := range waits {
		if err := wait(); err != nil {
			return err
		}
	}
	return nil
}

// HasChunk reports whether the node stores the chunk. A quarantined
// chunk exists (repair decides what to do with it), so it reports
// true.
func (e *Engine) HasChunk(ctx context.Context, id client.ChunkID) (bool, error) {
	if err := e.begin(ctx); err != nil {
		return false, err
	}
	defer e.mu.Unlock()
	_, _, _, ok, err := e.store.Get(id)
	if err != nil && isCorrupt(err) {
		return true, nil
	}
	return ok, err
}

// ChunkCount reports how many chunks the node stores.
func (e *Engine) ChunkCount(ctx context.Context) (int, error) {
	if err := e.begin(ctx); err != nil {
		return 0, err
	}
	defer e.mu.Unlock()
	return e.store.Len()
}

// Wipe erases the node's store, simulating media loss; typically
// followed by the repair protocol refilling the node. The persisted
// epoch state is wiped with everything else — a node returning on a
// fresh disk has forgotten the fence and waits for the coordinator's
// next SetEpoch broadcast, exactly like a brand-new node.
func (e *Engine) Wipe(ctx context.Context) error {
	if err := e.begin(ctx); err != nil {
		return err
	}
	return e.mutate(func() (func() error, error) {
		e.epochRetired.Store(0)
		e.epochLoaded.Store(true)
		return e.stageWipe()
	})
}

// VerifyStore audits the store's at-rest state when the store supports
// it (see Scanner): corrupt chunks are quarantined and their ids
// returned, so a maintenance loop can run it periodically and scrub
// finds cold bit-rot without waiting for a client read. Stores without
// an at-rest audit return (nil, nil).
func (e *Engine) VerifyStore(ctx context.Context) ([]client.ChunkID, error) {
	if err := e.begin(ctx); err != nil {
		return nil, err
	}
	defer e.mu.Unlock()
	sc, ok := e.store.(Scanner)
	if !ok {
		return nil, nil
	}
	return sc.Scan()
}

// stageVersions copies a version vector into the engine's scratch
// slice (valid until the next engine operation — safe because the
// engine lock is held until the store call returns).
func (e *Engine) stageVersions(versions []uint64) []uint64 {
	e.scratch = append(e.scratch[:0], versions...)
	return e.scratch
}

func (e *Engine) notFound(id client.ChunkID) error {
	return fmt.Errorf("%w: %s on %s", client.ErrNotFound, id, e.name)
}
