package core

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"trapquorum/client"
	"trapquorum/internal/trapezoid"
)

// The count table pins what the hot paths cost in node RPCs and in
// rounds. A counting client in front of every node counts the RPCs the
// coordinator issues, by node and kind, and holds each one for rpcHold
// before passing it on (or until its context ends). The hold makes
// every RPC of one fan-out overlap every other whatever the scheduler
// does, so a round — one disjoint piece of the union of the RPC spans,
// as the end-to-end benchmark counts it — is exactly one sequential
// fan-out wave, and an early stop never lands before the whole wave is
// issued.

// rpcHold is long against goroutine start-up skew, even under -race,
// and short enough that the table runs in about a second.
const rpcHold = 20 * time.Millisecond

type rpcKind int

const (
	rpcReadChunk rpcKind = iota
	rpcReadVersions
	rpcPutChunk
	rpcCompareAndAdd
	rpcOther // PutChunkIfFresher, CompareAndPut, DeleteChunk
	rpcKinds
)

var rpcNames = [rpcKinds]string{"ReadChunk", "ReadVersions", "PutChunk", "CompareAndAdd", "other"}

// rpcCounts is a number of RPCs per kind.
type rpcCounts [rpcKinds]int

func (c rpcCounts) String() string {
	var parts []string
	for kind, n := range c {
		if n != 0 {
			parts = append(parts, fmt.Sprintf("%s %d", rpcNames[kind], n))
		}
	}
	return fmt.Sprint(parts)
}

// rpcLog is what the counting clients of one cluster saw.
type rpcLog struct {
	mu    sync.Mutex
	calls []rpcCounts // by node
	spans [][2]time.Time
}

// begin counts one RPC and returns the function that closes its span.
func (l *rpcLog) begin(node int, kind rpcKind) func() {
	start := time.Now()
	l.mu.Lock()
	l.calls[node][kind]++
	l.mu.Unlock()
	return func() {
		end := time.Now()
		l.mu.Lock()
		l.spans = append(l.spans, [2]time.Time{start, end})
		l.mu.Unlock()
	}
}

func (l *rpcLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.calls)
	l.spans = nil
}

// rounds counts the disjoint pieces of the union of the RPC spans.
func (l *rpcLog) rounds() int {
	l.mu.Lock()
	spans := append([][2]time.Time(nil), l.spans...)
	l.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i][0].Before(spans[j][0]) })
	rounds := 0
	var end time.Time
	for _, s := range spans {
		if rounds == 0 || s[0].After(end) {
			rounds++
			end = s[1]
		} else if s[1].After(end) {
			end = s[1]
		}
	}
	return rounds
}

// countingNode counts and holds every RPC to one node.
type countingNode struct {
	NodeClient
	node int
	log  *rpcLog
}

// hold delays an RPC by rpcHold, or until its context ends.
func hold(ctx context.Context) error {
	t := time.NewTimer(rpcHold)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *countingNode) ReadChunk(ctx context.Context, id client.ChunkID) (client.Chunk, error) {
	defer c.log.begin(c.node, rpcReadChunk)()
	if err := hold(ctx); err != nil {
		return client.Chunk{}, err
	}
	return c.NodeClient.ReadChunk(ctx, id)
}

func (c *countingNode) ReadVersions(ctx context.Context, id client.ChunkID) ([]uint64, []client.BlockSum, error) {
	defer c.log.begin(c.node, rpcReadVersions)()
	if err := hold(ctx); err != nil {
		return nil, nil, err
	}
	return c.NodeClient.ReadVersions(ctx, id)
}

func (c *countingNode) PutChunk(ctx context.Context, id client.ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	defer c.log.begin(c.node, rpcPutChunk)()
	if err := hold(ctx); err != nil {
		return err
	}
	return c.NodeClient.PutChunk(ctx, id, data, versions, sums...)
}

func (c *countingNode) CompareAndAdd(ctx context.Context, id client.ChunkID, slot int, expect, next uint64, delta []byte, sum ...client.BlockSum) error {
	defer c.log.begin(c.node, rpcCompareAndAdd)()
	if err := hold(ctx); err != nil {
		return err
	}
	return c.NodeClient.CompareAndAdd(ctx, id, slot, expect, next, delta, sum...)
}

func (c *countingNode) PutChunkIfFresher(ctx context.Context, id client.ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	defer c.log.begin(c.node, rpcOther)()
	if err := hold(ctx); err != nil {
		return err
	}
	return c.NodeClient.PutChunkIfFresher(ctx, id, data, versions, sums...)
}

func (c *countingNode) CompareAndPut(ctx context.Context, id client.ChunkID, slot int, expect, next uint64, data []byte, sum ...client.BlockSum) error {
	defer c.log.begin(c.node, rpcOther)()
	if err := hold(ctx); err != nil {
		return err
	}
	return c.NodeClient.CompareAndPut(ctx, id, slot, expect, next, data, sum...)
}

func (c *countingNode) DeleteChunk(ctx context.Context, id client.ChunkID) error {
	defer c.log.begin(c.node, rpcOther)()
	if err := hold(ctx); err != nil {
		return err
	}
	return c.NodeClient.DeleteChunk(ctx, id)
}

// countedSystem is newTestSystem with a counting client in front of
// every node.
func countedSystem(t *testing.T, n, k int, shape trapezoid.Shape, w int) (*testSystem, *rpcLog) {
	t.Helper()
	ts := newTestSystem(t, n, k, shape, w, Options{})
	log := &rpcLog{calls: make([]rpcCounts, n)}
	nodes := make([]NodeClient, n)
	for j := range nodes {
		nodes[j] = &countingNode{NodeClient: ts.cluster.Node(j), node: j, log: log}
	}
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
			target, other, parity rpcCounts
			rounds                int
		}{
			{
				name: "healthy ReadStripe of every block", first: 0, j: k,
				op:     readRange(ctx, 0, k),
				target: rpcCounts{rpcReadChunk: k}, parity: rpcCounts{rpcReadVersions: n - k},
				rounds: 1,
			},
			{
				name: "healthy ReadStripe of 2 blocks", first: 1, j: 2,
				op:     readRange(ctx, 1, 2),
				target: rpcCounts{rpcReadChunk: 2}, parity: rpcCounts{rpcReadVersions: n - k},
				rounds: 1,
			},
			{
				name: "healthy ReadBlock", first: 2, j: 1,
				op:     readOne(ctx, 2),
				target: rpcCounts{rpcReadChunk: 1}, parity: rpcCounts{rpcReadVersions: n - k},
				rounds: 1,
			},
			{
				// The snapshot, then one decode gather of all n shards.
				name: "ReadBlock, data node down", first: 2, j: 1, down: true,
				op:     readOne(ctx, 2),
				target: rpcCounts{rpcReadChunk: 2}, other: rpcCounts{rpcReadChunk: k - 1},
				parity: rpcCounts{rpcReadChunk: n - k, rpcReadVersions: n - k},
				rounds: 2,
			},
			{
				// Algorithm 1: the line-15 read, then every trapezoid
				// position's update in one fan-out.
				name: "healthy WriteBlock", first: 2, j: 1,
				op: func(ts *testSystem, _ [][]byte) error {
					return ts.sys.WriteBlock(ctx, ts.stripe(1), 2, x)
				},
				target: rpcCounts{rpcReadChunk: 1, rpcPutChunk: 1},
				parity: rpcCounts{rpcReadVersions: n - k, rpcCompareAndAdd: n - k},
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
				log.reset()
				if err := row.op(ts, data); err != nil {
					t.Fatal(err)
				}
				var target, other, parity rpcCounts
				for node, calls := range log.calls {
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
					got, want rpcCounts
				}{{"addressed data nodes", target, row.target}, {"other data nodes", other, row.other}, {"parity nodes", parity, row.parity}} {
					if c.got != c.want {
						t.Errorf("%s: RPCs %v, want %v", c.name, c.got, c.want)
					}
				}
				if got := log.rounds(); got != row.rounds {
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
