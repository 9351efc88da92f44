package core

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"trapquorum/internal/rpccount"
	"trapquorum/internal/trapezoid"
)

// The count table pins what the hot paths cost in node RPCs and in
// rounds, counted by rpccount's holding clients in front of every node.

// countedSystem is newTestSystem with a counting client in front of
// every node.
func countedSystem(t *testing.T, n, k int, shape trapezoid.Shape, w int) (*testSystem, *rpccount.Log) {
	t.Helper()
	ts := newTestSystem(t, n, k, shape, w, Options{})
	nodes := make([]NodeClient, n)
	for j := range nodes {
		nodes[j] = ts.cluster.Node(j)
	}
	nodes, log := rpccount.Wrap(nodes)
	sys, err := NewSystem(ts.code, ts.sys.Layout().Config(), nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts.sys = sys
	return ts, log
}

// TestRPCCountTable pins the node RPCs and rounds of the stripe read,
// its one-block case and the quorum write, healthy and with the
// addressed data node down, on the (9,6) a=2 b=1 h=1 w=2 system (level
// 0 is the data node alone) and on the paper's Figure-3 (15,8) one.
// Every expected value is a formula in (n, k, j), checked per shard
// class: the j data nodes the operation addresses, the other data
// nodes, the parity nodes.
func TestRPCCountTable(t *testing.T) {
	ctx := context.Background()
	configs := []struct {
		n, k  int
		shape trapezoid.Shape
		w     int
	}{
		{9, 6, trapezoid.Shape{A: 2, B: 1, H: 1}, 2},
		{15, 8, trapezoid.Shape{A: 2, B: 3, H: 1}, 3},
	}
	for _, cfg := range configs {
		n, k := cfg.n, cfg.k
		x := bytes.Repeat([]byte{0x5a}, 64)
		rows := []struct {
			name     string
			first, j int  // the data blocks addressed: [first, first+j)
			down     bool // block first's data node is down
			op       func(ts *testSystem, data [][]byte) error
			// Expected RPCs summed over each shard class, and rounds.
			target, other, parity rpccount.Counts
			rounds                int
		}{
			{
				name: "healthy ReadStripe of every block", first: 0, j: k,
				op:     readRange(ctx, 0, k),
				target: rpccount.Counts{rpccount.ReadChunk: k}, parity: rpccount.Counts{rpccount.ReadVersions: n - k},
				rounds: 1,
			},
			{
				name: "healthy ReadStripe of 2 blocks", first: 1, j: 2,
				op:     readRange(ctx, 1, 2),
				target: rpccount.Counts{rpccount.ReadChunk: 2}, parity: rpccount.Counts{rpccount.ReadVersions: n - k},
				rounds: 1,
			},
			{
				name: "healthy ReadBlock", first: 2, j: 1,
				op:     readOne(ctx, 2),
				target: rpccount.Counts{rpccount.ReadChunk: 1}, parity: rpccount.Counts{rpccount.ReadVersions: n - k},
				rounds: 1,
			},
			{
				// The snapshot, then one decode gather of all n shards.
				name: "ReadBlock, data node down", first: 2, j: 1, down: true,
				op:     readOne(ctx, 2),
				target: rpccount.Counts{rpccount.ReadChunk: 2}, other: rpccount.Counts{rpccount.ReadChunk: k - 1},
				parity: rpccount.Counts{rpccount.ReadChunk: n - k, rpccount.ReadVersions: n - k},
				rounds: 2,
			},
			{
				// Algorithm 1: the line-15 read, then every trapezoid
				// position's update in one fan-out.
				name: "healthy WriteBlock", first: 2, j: 1,
				op: func(ts *testSystem, _ [][]byte) error {
					return ts.sys.WriteBlock(ctx, ts.stripe(1), 2, x)
				},
				target: rpccount.Counts{rpccount.ReadChunk: 1, rpccount.PutChunk: 1},
				parity: rpccount.Counts{rpccount.ReadVersions: n - k, rpccount.CompareAndAdd: n - k},
				rounds: 2,
			},
			{
				// A patch of some bytes costs the same: it is applied to
				// what the line-15 read returned, under the block lock.
				name: "healthy WriteBlockAt", first: 2, j: 1,
				op: func(ts *testSystem, _ [][]byte) error {
					return ts.sys.WriteBlockAt(ctx, ts.stripe(1), 2, 10, x[:7])
				},
				target: rpccount.Counts{rpccount.ReadChunk: 1, rpccount.PutChunk: 1},
				parity: rpccount.Counts{rpccount.ReadVersions: n - k, rpccount.CompareAndAdd: n - k},
				rounds: 2,
			},
		}
		for _, row := range rows {
			t.Run(fmt.Sprintf("n%d.k%d/%s", n, k, row.name), func(t *testing.T) {
				ts, log := countedSystem(t, n, k, cfg.shape, cfg.w)
				data := ts.seed(t, 1, 64)
				if row.down {
					ts.cluster.Crash(row.first)
				}
				log.Reset()
				if err := row.op(ts, data); err != nil {
					t.Fatal(err)
				}
				var target, other, parity rpccount.Counts
				for node, calls := range log.Calls() {
					class := &parity
					switch {
					case node >= row.first && node < row.first+row.j:
						class = &target
					case node < k:
						class = &other
					}
					for kind, c := range calls {
						class[kind] += c
					}
				}
				for _, c := range []struct {
					name      string
					got, want rpccount.Counts
				}{{"addressed data nodes", target, row.target}, {"other data nodes", other, row.other}, {"parity nodes", parity, row.parity}} {
					if c.got != c.want {
						t.Errorf("%s: RPCs %v, want %v", c.name, c.got, c.want)
					}
				}
				if got := log.Rounds(); got != row.rounds {
					t.Errorf("rounds = %d, want %d", got, row.rounds)
				}
			})
		}
	}
}

// readRange is a count-table op: ReadStripe of [first, first+count),
// checked against the seeded blocks.
func readRange(ctx context.Context, first, count int) func(*testSystem, [][]byte) error {
	return func(ts *testSystem, data [][]byte) error {
		got, _, err := ts.sys.ReadStripe(ctx, ts.stripe(1), first, count)
		if err != nil {
			return err
		}
		for i, block := range got {
			if !bytes.Equal(block, data[first+i]) {
				return fmt.Errorf("block %d: wrong bytes", first+i)
			}
		}
		return nil
	}
}

// readOne is a count-table op: ReadBlock of one block, checked against
// the seeded one.
func readOne(ctx context.Context, block int) func(*testSystem, [][]byte) error {
	return func(ts *testSystem, data [][]byte) error {
		got, _, err := ts.sys.ReadBlock(ctx, ts.stripe(1), block)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, data[block]) {
			return fmt.Errorf("block %d: wrong bytes", block)
		}
		return nil
	}
}
