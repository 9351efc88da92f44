// Package client defines the transport contract between the TRAP-ERC
// quorum protocol and the storage nodes it runs on: the chunk naming
// and version-vector model, the sentinel errors a node may return, and
// the NodeClient interface every backend must implement.
//
// The protocol core is written entirely against NodeClient, so a
// backend is free to put anything behind it. This repository ships
// two: the in-process simulated cluster (internal/sim) and the TCP
// node client (transport/tcp) that talks to cmd/trapnode daemons.
// Both run the same node-side state machine — internal/nodeengine
// implements the chunk table, version vectors and atomic conditional
// operations once, over pluggable chunk stores (in-memory, on-disk) —
// so "implementing a backend" means carrying these operations to an
// engine, not re-implementing their semantics.
//
// # Optional node capabilities
//
// Two optional interfaces extend NodeClient; coordinators type-assert
// for them and degrade gracefully on nodes that lack them.
// EpochSetter persists the placement epoch behind online
// reconfiguration and fences stale-epoch traffic. ChunkRemover takes
// all of one node's removals of a Delete in one request and one
// durable batch; without it the coordinator sends one DeleteChunk per
// chunk.
//
// # Fault injection
//
// Crash/restart/wipe fault injection is an optional backend extension
// (trapquorum.FaultInjector), implemented by the simulator. Backends
// without it — a network backend cannot crash a remote machine — make
// the store-level CrashNode/RestartNode/AliveNodes/WipeNode calls
// fail with an error wrapping trapquorum.ErrNotSupported; a node that
// is genuinely down simply answers every operation with ErrNodeDown
// (an unreachable node and a fail-stopped node are indistinguishable
// on the wire, which is exactly the protocol's fail-stop model).
//
// # Concurrency and cancellation
//
// The protocol's dispatch engine issues many RPCs against one node
// concurrently — every node operation of a quorum read or write is in
// flight at once, and hedged reads can put two identical RPCs on the
// wire. A NodeClient therefore must be safe for concurrent use, and
// the conditional operations (CompareAndPut, CompareAndAdd,
// PutChunkIfFresher) must make their version check atomic with the
// data mutation; the protocol's consistency argument depends on that
// per-node atomicity.
//
// Every method takes a context.Context, and the engine leans on one
// cancellation guarantee:
//
//   - Promptness: a backend must give up quickly when the context is
//     cancelled or its deadline expires, returning the context's error
//     (possibly wrapped). First-k reads cancel straggler RPCs and then
//     wait for them to settle, so a backend that ignores cancellation
//     re-introduces the straggler latency the engine exists to remove.
//
// A context error says nothing about the node's state: once a request
// has reached the wire, a cancellation races the node's apply, and the
// client reports the context error without knowing whether the
// mutation landed. Any other transport error is just as uncertain. The
// protocol treats such an outcome as in doubt, never as "unchanged": a
// failed write sends every update it cannot rule out a version-guarded
// undo, which a node that never applied the update refuses as a version
// mismatch. Only a node's own answer — success, ErrVersionMismatch,
// ErrNotFound, ErrCorrupt — is definite. What the undo cannot reach (a
// crashed node, an update still queued behind its own undo) stays as
// residue that version vectors classify as stale-or-ahead and that
// RepairStripe/Scrub reconcile.
//
// Hedging only ever duplicates read-only RPCs (ReadChunk,
// ReadVersions), so a backend needs no idempotency beyond what the
// interface already states.
//
// # Buffer ownership
//
// Request buffers (the data of PutChunk/CompareAndPut/
// PutChunkIfFresher, the delta of CompareAndAdd, and every request's
// versions and checksum entries) are only valid for the duration of
// the call: the protocol core runs its data plane over pooled buffers
// and recycles them once the RPC has settled, and a network server
// decodes into per-connection storage and pooled frames it reuses for
// the next request — so a backend must copy what it needs before
// returning and must never retain a reference past the call. Symmetrically, a Chunk returned
// by ReadChunk is owned by the caller — the backend must not alias it
// to state it might mutate later. (DESIGN.md "Buffer ownership" has
// the full data-plane rules.)
//
// # Version semantics
//
// The version model the protocol relies on:
//
//   - A data chunk (shard < k) carries exactly one version, that of
//     the data block it stores.
//   - A parity chunk (shard ≥ k) carries k versions — entry i says
//     which version of data block i is folded into the parity bytes.
//
// See the NodeClient method comments for the per-operation contract.
package client
