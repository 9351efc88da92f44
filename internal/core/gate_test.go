package core

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testGate is a concurrency-safe block list standing in for the
// transport's circuit breakers: blocked nodes report unusable through
// Options.NodeGate.
type testGate struct {
	mu      sync.Mutex
	blocked map[int]bool
}

func newTestGate() *testGate { return &testGate{blocked: make(map[int]bool)} }

func (g *testGate) allow(node int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return !g.blocked[node]
}

func (g *testGate) block(node int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.blocked[node] = true
}

func (g *testGate) unblock(node int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.blocked, node)
}

// TestNodeGateSkipsTransport pins the gate contract: operations
// against a gated node fail locally and the node's transport is never
// touched, while reads route around it by decoding.
func TestNodeGateSkipsTransport(t *testing.T) {
	gate := newTestGate()
	ts := fig3System(t, Options{NodeGate: gate.allow})
	data := ts.seed(t, 1, 64)

	gate.block(0)
	m := ts.shardNode(0).Metrics()
	reads, probes := m.Reads.Load(), m.VersionQueries.Load()

	for i := 0; i < 3; i++ {
		got, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 0)
		if err != nil {
			t.Fatalf("read with gated data node: %v", err)
		}
		if !bytes.Equal(got, data[0]) {
			t.Fatal("read around gated node returned wrong data")
		}
	}
	if r := m.Reads.Load(); r != reads {
		t.Fatalf("gated node served %d chunk reads; transport should never be touched", r-reads)
	}
	if p := m.VersionQueries.Load(); p != probes {
		t.Fatalf("gated node served %d version probes; transport should never be touched", p-probes)
	}
}

// slowOnce installs the hedging test's cluster model on node j: its
// first RPC stalls past any hedge delay, later RPCs are instant. The
// returned counter observes every transport-level call the node saw.
func slowOnce(ts *testSystem, j int) *atomic.Int64 {
	var calls atomic.Int64
	ts.cluster.SetNodeDelay(j, func(string) time.Duration {
		if calls.Add(1) == 1 {
			return stragglerDelay
		}
		return 0
	})
	return &calls
}

// TestGatedNodeLeavesAndRejoinsHedgePool pins the hedging × breaker
// interaction. A node behind an open breaker fails instantly — before
// any hedge timer fires — so the engine never launches a hedge toward
// it (an open breaker is never a hedge target: zero transport calls
// reach it even while every other slow node is being hedged). Once
// the gate reopens (the transport's half-open probe succeeded), the
// same node is back in the hedge pool: its straggling first RPC is
// re-issued, observable as a second transport call and an advancing
// Metrics.HedgedRPCs.
func TestGatedNodeLeavesAndRejoinsHedgePool(t *testing.T) {
	gate := newTestGate()
	ts := fig3System(t, Options{
		Hedge:    HedgeConfig{Delay: 10 * time.Millisecond},
		NodeGate: gate.allow,
	})
	data := ts.seed(t, 1, 64)

	// Every node's first RPC stalls, so every contacted node must be
	// hedged for the read to finish quickly — except node 0, whose
	// open breaker makes its RPCs fail locally before the hedge timer
	// ever starts.
	counters := make([]*atomic.Int64, ts.code.N())
	for j := 0; j < ts.code.N(); j++ {
		counters[j] = slowOnce(ts, j)
	}
	gate.block(0)

	timeOp(t, "read with gated straggler", func() error {
		got, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 0)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data[0]) {
			t.Fatal("read with gated straggler returned wrong data")
		}
		return nil
	})
	afterOpen := ts.sys.Metrics().HedgedRPCs
	if afterOpen == 0 {
		t.Fatal("no RPCs were hedged: the straggling cluster should force hedges")
	}
	if n := counters[0].Load(); n != 0 {
		t.Fatalf("node behind an open breaker saw %d transport calls (hedge targeted a gated node)", n)
	}

	// The breaker's half-open probe succeeds: the gate reopens and the
	// node rejoins the hedge pool. Everyone is slow-once again; this
	// time node 0 must be hedged like its peers — its stalled primary
	// plus the re-issued hedge are two transport calls.
	gate.unblock(0)
	for j := 0; j < ts.code.N(); j++ {
		counters[j] = slowOnce(ts, j)
	}

	timeOp(t, "read after gate reopens", func() error {
		got, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(1), 0)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data[0]) {
			t.Fatal("read after heal returned wrong data")
		}
		return nil
	})
	if m := ts.sys.Metrics(); m.HedgedRPCs <= afterOpen {
		t.Fatal("healed node was not restored to the hedge pool: no further RPCs hedged")
	}
	if n := counters[0].Load(); n < 2 {
		t.Fatalf("healed node saw %d transport calls; want >= 2 (stalled primary + hedge)", n)
	}
}
