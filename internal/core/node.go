package core

import (
	"context"
	"fmt"

	"trapquorum/client"
)

// wrappedNode is the one decorator NewSystem puts around a node client,
// built only when the system has an epoch or a gate. The gate comes
// first: when Options.NodeGate reports the node unusable (typically:
// its circuit breaker is open), every operation fails locally with
// ErrNodeDown before the transport is touched. The instant local
// failure is what keeps the hedging engine honest — a gated node errors
// before any hedge timer fires, so hedges are never launched because of
// it and it is never picked as a hedge target. Every RPC the gate lets
// through has its context stamped with Options.Epoch
// (client.WithEpoch), so the transport tags its frames and
// epoch-guarding nodes can fence the coordinator once the epoch is
// retired. The wrapper covers each RPC the engine can issue — fan-out,
// hedging, repair, scrub — without call-site changes.
type wrappedNode struct {
	NodeClient
	node  int
	gate  func(node int) bool // nil: no gate
	epoch uint64              // 0: no tag
}

// enter consults the gate once per operation and tags the context.
func (w *wrappedNode) enter(ctx context.Context) (context.Context, error) {
	if w.gate != nil && !w.gate(w.node) {
		return ctx, fmt.Errorf("%w: node %d: circuit open", client.ErrNodeDown, w.node)
	}
	if w.epoch != 0 {
		ctx = client.WithEpoch(ctx, w.epoch)
	}
	return ctx, nil
}

func (w *wrappedNode) ReadChunk(ctx context.Context, id client.ChunkID) (client.Chunk, error) {
	ctx, err := w.enter(ctx)
	if err != nil {
		return client.Chunk{}, err
	}
	return w.NodeClient.ReadChunk(ctx, id)
}

func (w *wrappedNode) ReadVersions(ctx context.Context, id client.ChunkID) ([]uint64, []client.BlockSum, error) {
	ctx, err := w.enter(ctx)
	if err != nil {
		return nil, nil, err
	}
	return w.NodeClient.ReadVersions(ctx, id)
}

func (w *wrappedNode) PutChunk(ctx context.Context, id client.ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	ctx, err := w.enter(ctx)
	if err != nil {
		return err
	}
	return w.NodeClient.PutChunk(ctx, id, data, versions, sums...)
}

func (w *wrappedNode) PutChunkIfFresher(ctx context.Context, id client.ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	ctx, err := w.enter(ctx)
	if err != nil {
		return err
	}
	return w.NodeClient.PutChunkIfFresher(ctx, id, data, versions, sums...)
}

func (w *wrappedNode) CompareAndPut(ctx context.Context, id client.ChunkID, slot int, expect, next uint64, data []byte, sum ...client.BlockSum) error {
	ctx, err := w.enter(ctx)
	if err != nil {
		return err
	}
	return w.NodeClient.CompareAndPut(ctx, id, slot, expect, next, data, sum...)
}

func (w *wrappedNode) CompareAndAdd(ctx context.Context, id client.ChunkID, slot int, expect, next uint64, delta []byte, sum ...client.BlockSum) error {
	ctx, err := w.enter(ctx)
	if err != nil {
		return err
	}
	return w.NodeClient.CompareAndAdd(ctx, id, slot, expect, next, delta, sum...)
}

func (w *wrappedNode) DeleteChunk(ctx context.Context, id client.ChunkID) error {
	ctx, err := w.enter(ctx)
	if err != nil {
		return err
	}
	return w.NodeClient.DeleteChunk(ctx, id)
}
