package service

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"trapquorum/internal/core"
	"trapquorum/internal/sim"
	"trapquorum/internal/trapezoid"
	"trapquorum/placement"
)

// TestAdaptiveHedgingLearnsOnRotatingPlacement: under ring placement
// every one of these objects' stripes has a placement of its own, and a
// one-block Get records fewer read-RPC latencies than the adaptive
// hedger needs before it estimates a delay (hedgeMinSamples, 16). The
// hedger belongs to the epoch's protocol instance, so the warm-up Gets
// of all objects teach it one delay, and the read whose data node is
// slow gets hedged. When every placement had an instance — and a window
// — of its own, no window ever reached 16 samples: on that design this
// test counted 0 hedged RPCs in each of 20 runs; on one instance per
// epoch it counted 3–15 over 20 runs (28–54 under -race).
func TestAdaptiveHedgingLearnsOnRotatingPlacement(t *testing.T) {
	ctx := context.Background()
	cluster, err := sim.NewCluster(testClusterSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	strat, err := placement.NewRing(testClusterSize, 16)
	if err != nil {
		t.Fatal(err)
	}
	const n, objects = 15, 32
	store, err := New(clientsOf(cluster), Config{
		N: n, K: 8,
		Shape: trapezoid.Shape{A: 2, B: 3, H: 1}, W: 3,
		BlockSize: testBlockSize,
		Placement: strat,
		Hedge:     core.HedgeConfig{Quantile: 0.9},
	})
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, objects)
	placements := make(map[string]bool)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte(i)}, testBlockSize)
		key := fmt.Sprintf("obj-%d", i)
		if err := store.Put(ctx, key, payloads[i]); err != nil {
			t.Fatal(err)
		}
		stripes, err := store.StripesOf(key)
		if err != nil {
			t.Fatal(err)
		}
		nodes, err := strat.Place(stripes[0], n)
		if err != nil {
			t.Fatal(err)
		}
		placements[fmt.Sprint(nodes)] = true
		if i == objects-1 {
			// The last object's read block lives on its data node, shard 0.
			cluster.SetNodeDelay(nodes[0], sim.FixedDelay(20*time.Millisecond))
		}
	}
	if len(placements) != objects {
		t.Fatalf("%d placements for %d objects: the fixture no longer rotates", len(placements), objects)
	}
	for i, want := range payloads {
		got, err := store.Get(ctx, fmt.Sprintf("obj-%d", i))
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("obj-%d: %v", i, err)
		}
	}
	m := store.Fleet().Metrics()
	if m.HedgedRPCs == 0 {
		t.Fatalf("no RPC hedged after %d reads: the adaptive delay never formed (%+v)", objects, m)
	}
	t.Logf("%d hedged RPCs over %d reads", m.HedgedRPCs, objects)
}
