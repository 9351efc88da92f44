package core

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"trapquorum/internal/sim"
	"trapquorum/internal/trapezoid"
)

// The tests in this file pin the dispatch engine's semantics: first-k
// reads never block on a straggler node, a write cancelled mid-fan-out
// leaves no partial footprint, hedging rescues reads from transient
// per-node slowness, and the bounded (concurrency=1) engine still
// implements the same protocol.

// stragglerDelay is the injected latency that must NOT appear in any
// measured operation below; budget is the generous upper bound the
// operations must finish within on a loaded CI machine.
const (
	stragglerDelay = 30 * time.Second
	budget         = 5 * time.Second
)

// timeOp fails the test when op takes longer than budget — i.e. when
// it waited for a straggler.
func timeOp(t *testing.T, what string, op func() error) {
	t.Helper()
	start := time.Now()
	if err := op(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if elapsed := time.Since(start); elapsed > budget {
		t.Fatalf("%s blocked on a straggler: took %v", what, elapsed)
	}
}

// TestReadDoesNotWaitForStragglerNode: one level-1 parity node is made
// pathologically slow; a healthy read reaches its level-0 version
// quorum, cancels the straggler's probe, and serves the block directly
// — in microseconds, not stragglerDelay.
func TestReadDoesNotWaitForStragglerNode(t *testing.T) {
	ts := fig3System(t, Options{})
	data := ts.seed(t, 1, 64)
	ts.cluster.SetNodeDelay(14, sim.FixedDelay(stragglerDelay)) // last level-1 parity
	timeOp(t, "read with straggler", func() error {
		got, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 3)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data[3]) {
			t.Fatal("read returned wrong data")
		}
		return nil
	})
}

// TestReadDoesNotWaitForStragglerDataNode: the straggler is the
// block's *own* data node, so its freshness probe never settles before
// the version quorum is won. The grace-bounded direct read must give
// up on the node and serve the block through the racing decode path —
// this is the case where a naive "optimistic direct read" would block
// for the node's full latency.
func TestReadDoesNotWaitForStragglerDataNode(t *testing.T) {
	ts := fig3System(t, Options{})
	data := ts.seed(t, 1, 64)
	ts.cluster.SetNodeDelay(3, sim.FixedDelay(stragglerDelay))
	timeOp(t, "read with straggling data node", func() error {
		got, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 3)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data[3]) {
			t.Fatal("read returned wrong data")
		}
		return nil
	})
	if m := ts.sys.Metrics(); m.DecodeReads != 1 {
		t.Fatalf("expected the decode race to serve the block, got %+v", m)
	}
}

// TestAbandonedChunkReadEndsWithCallerDeadline: the data node's link
// swallows every request, so the stripe read abandons its chunk read at
// the grace and decodes. The abandoned RPC outlives the read and the
// caller's cancel — a transport's attempt timeout must still see the
// stall — but not the caller's deadline: it aborts then, never earlier.
func TestAbandonedChunkReadEndsWithCallerDeadline(t *testing.T) {
	ts := fig3System(t, Options{})
	data := ts.seed(t, 1, 64)
	ts.cluster.SetLinkFault(3, sim.LinkFault{ReqLoss: 1}, 1)
	aborts := &ts.shardNode(3).Engine().Metrics().CtxAborts
	deadline := time.Now().Add(500 * time.Millisecond)
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	got, _, err := ts.sys.ReadBlock(ctx, ts.stripe(1), 3)
	cancel()
	if err != nil || !bytes.Equal(got, data[3]) {
		t.Fatalf("read through a silent data node: err = %v, right bytes = %v", err, bytes.Equal(got, data[3]))
	}
	// Any chunk read the decode issued to node 3 was cancelled, and has
	// settled, before the read returned; the abandoned one is pending.
	atReturn := aborts.Load()
	for aborts.Load() == atReturn {
		if time.Since(deadline) > budget {
			t.Fatalf("no chunk read at node 3 ended after the read returned (%v past the caller's deadline): "+
				"the abandoned one is stuck, or the grace cancelled it", budget)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if early := time.Until(deadline); early > 0 {
		t.Fatalf("abandoned chunk read ended %v before the caller's deadline: cancel() reached it", early)
	}
	if got := aborts.Load() - atReturn; got != 1 {
		t.Fatalf("node 3 aborted %d more RPCs after the read, want 1", got)
	}
}

// TestDecodeDoesNotWaitForStragglerNode: the data node is down (Case 2
// decode) and one surviving parity node is pathologically slow. The
// first-k decode assembles a consistent set from the 13 prompt shards
// and cancels the straggler's chunk read.
func TestDecodeDoesNotWaitForStragglerNode(t *testing.T) {
	ts := fig3System(t, Options{})
	data := ts.seed(t, 1, 64)
	ts.cluster.Crash(2)
	ts.cluster.SetNodeDelay(11, sim.FixedDelay(stragglerDelay))
	timeOp(t, "decode with straggler", func() error {
		got, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 2)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data[2]) {
			t.Fatal("decode returned wrong data")
		}
		return nil
	})
	if m := ts.sys.Metrics(); m.DecodeReads != 1 {
		t.Fatalf("expected exactly one decode read, got %+v", m)
	}
}

// TestWriteCancelledMidFanoutLeavesNoFootprint drives a write into the
// parallel update fan-out and expires its context while the level-1
// updates are still in their delay window: level 0 (data node plus two
// parity nodes, all fast) applies, level 1 (five slow parity nodes)
// cannot reach w=3, the write aborts with the context error, and the
// rollback restores every applied node — no shard may be left at the
// new version or with the new bytes.
func TestWriteCancelledMidFanoutLeavesNoFootprint(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 64)
	// Level 0 serves block 3 through shards {3, 8, 9}; level 1 is
	// shards 10..14. Slow every level-1 node's mutating ops only, so
	// the write's initial read stays fast.
	for shard := 10; shard <= 14; shard++ {
		ts.cluster.SetNodeDelay(shard, func(op string) time.Duration {
			if op == "add" || op == "write" {
				return stragglerDelay
			}
			return 0
		})
	}
	before := readAllShards(t, ts, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	timeOp(t, "cancelled write", func() error {
		err := ts.sys.WriteBlock(ctx, ts.stripe(1), 3, bytes.Repeat([]byte{0xFF}, 64))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want DeadlineExceeded, got %v", err)
		}
		var op *OpError
		if !errors.As(err, &op) {
			t.Fatalf("context abort not wrapped in OpError: %v", err)
		}
		return nil
	})

	after := readAllShards(t, ts, 1)
	for shard := range before {
		if !bytes.Equal(before[shard].Data, after[shard].Data) {
			t.Fatalf("shard %d bytes changed after cancelled write", shard)
		}
		for slot, v := range before[shard].Versions {
			if after[shard].Versions[slot] != v {
				t.Fatalf("shard %d version slot %d moved %d -> %d after cancelled write",
					shard, slot, v, after[shard].Versions[slot])
			}
		}
	}
	m := ts.sys.Metrics()
	if m.Writes != 0 || m.FailedWrites != 1 || m.Rollbacks != 1 {
		t.Fatalf("metrics after cancelled write: %+v", m)
	}
}

// TestRollbackBoundedWhenALinkStartsLosingRequests: a write applies at
// level 0, level 1 stalls past the write's deadline, and the data
// node's link starts losing requests before the rollback reaches it.
// The undo request to it is lost, and the write still returns — after
// the rollback budget, with the context's error — instead of holding
// the block's writer lock forever.
func TestRollbackBoundedWhenALinkStartsLosingRequests(t *testing.T) {
	ts := fig3System(t, Options{})
	ts.seed(t, 1, 64)
	// Block 0's level 0 is shards {0, 8, 9}; level 1 is shards 10..14.
	for shard := 10; shard <= 14; shard++ {
		ts.cluster.SetNodeDelay(shard, func(string) time.Duration { return stragglerDelay })
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- ts.sys.WriteBlock(ctx, ts.stripe(1), 0, bytes.Repeat([]byte{0xEE}, 64)) }()
	time.Sleep(50 * time.Millisecond) // level 0 has applied; the deadline has not passed
	ts.cluster.SetLinkFault(0, sim.LinkFault{ReqLoss: 1}, 1)
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("want DeadlineExceeded, got %v", err)
		}
	case <-time.After(rollbackBudget + 5*time.Second):
		t.Fatal("the write is still blocked on its rollback")
	}
	ts.cluster.SetLinkFault(0, sim.LinkFault{}, 0)
}

// readAllShards snapshots every shard of a stripe directly from the
// nodes, bypassing the protocol (delays only apply to mutating ops in
// the test above, and reads here use fresh fast paths).
func readAllShards(t *testing.T, ts *testSystem, stripe uint64) []sim.Chunk {
	t.Helper()
	out := make([]sim.Chunk, ts.code.N())
	for shard := 0; shard < ts.code.N(); shard++ {
		chunk, err := ts.shardNode(shard).ReadChunk(context.Background(), chunkID(stripe, shard))
		if err != nil {
			t.Fatalf("shard %d: %v", shard, err)
		}
		out[shard] = chunk
	}
	return out
}

// TestHedgingRescuesTransientlySlowProbes models a cluster whose nodes
// are slow exactly once (a GC pause, a cold cache): every node's first
// RPC takes stragglerDelay, later RPCs are instant. Without hedging a
// read must ride out the pause; with a small fixed hedge delay the
// re-issued probes land immediately.
func TestHedgingRescuesTransientlySlowProbes(t *testing.T) {
	ts := fig3System(t, Options{Hedge: HedgeConfig{Delay: 20 * time.Millisecond}})
	data := ts.seed(t, 1, 64)
	for j := 0; j < ts.code.N(); j++ {
		var calls atomic.Int64
		ts.cluster.SetNodeDelay(j, func(string) time.Duration {
			if calls.Add(1) == 1 {
				return stragglerDelay
			}
			return 0
		})
	}
	timeOp(t, "hedged read", func() error {
		got, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 0)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data[0]) {
			t.Fatal("hedged read returned wrong data")
		}
		return nil
	})
	if m := ts.sys.Metrics(); m.HedgedRPCs == 0 {
		t.Fatal("no RPCs were hedged")
	}
}

// TestConcurrencyOneStillImplementsTheProtocol runs a write/read/
// degraded-read cycle on the bounded engine (one RPC in flight at a
// time) — the sequential baseline must remain a correct protocol
// implementation, since benchmarks compare against it.
func TestConcurrencyOneStillImplementsTheProtocol(t *testing.T) {
	ts := fig3System(t, Options{Concurrency: 1})
	ts.seed(t, 1, 64)
	x := bytes.Repeat([]byte{0x5A}, 64)
	if err := ts.sys.WriteBlock(context.Background(), ts.stripe(1), 2, x); err != nil {
		t.Fatal(err)
	}
	got, version, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 || !bytes.Equal(got, x) {
		t.Fatalf("round trip on concurrency=1: version %d", version)
	}
	ts.cluster.Crash(2)
	got, _, err = ts.sys.ReadBlock(context.Background(), ts.stripe(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, x) {
		t.Fatal("degraded read on concurrency=1 returned wrong data")
	}
}

// TestNewSystemRejectsBadEngineOptions: the engine knobs validate.
func TestNewSystemRejectsBadEngineOptions(t *testing.T) {
	for _, opts := range []Options{
		{Concurrency: -1},
		{Hedge: HedgeConfig{Delay: -time.Second}},
		{Hedge: HedgeConfig{Quantile: 1.5}},
	} {
		ts := fig3System(t, Options{})
		_, err := NewSystem(ts.code, mustConfig(t), []NodeClient{}, opts)
		if err == nil {
			t.Fatalf("options %+v accepted", opts)
		}
	}
}

func mustConfig(t *testing.T) trapezoid.Config {
	t.Helper()
	cfg, err := trapezoid.NewConfig(trapezoid.Shape{A: 2, B: 3, H: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}
