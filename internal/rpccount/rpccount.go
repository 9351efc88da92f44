// Package rpccount is the test harness behind the count tables: a
// counting client in front of every node counts the RPCs a coordinator
// issues, by node and kind, and the chunk payload bytes PutChunk and
// CompareAndPut carry,
// and holds each RPC for Hold before passing it on (or until its
// context ends). The hold makes every RPC of one fan-out overlap every
// other whatever the scheduler does, so a round — one disjoint piece
// of the union of the RPC spans, as the end-to-end benchmark counts it
// — is exactly one sequential fan-out wave, and an early stop never
// lands before the whole wave is issued.
package rpccount

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"trapquorum/client"
	"trapquorum/internal/clock"
)

// Hold is long against goroutine start-up skew, even under -race, and
// short enough that a count table runs in about a second.
const Hold = 20 * time.Millisecond

// Kind names an RPC of the client.NodeClient surface.
type Kind int

const (
	ReadChunk Kind = iota
	ReadVersions
	PutChunk
	CompareAndAdd
	DeleteChunk
	CompareAndPut
	Other // PutChunkIfFresher
	Kinds
)

var names = [Kinds]string{"ReadChunk", "ReadVersions", "PutChunk", "CompareAndAdd", "DeleteChunk", "CompareAndPut", "other"}

// Counts is a number of RPCs per kind.
type Counts [Kinds]int

func (c Counts) String() string {
	var parts []string
	for kind, n := range c {
		if n != 0 {
			parts = append(parts, fmt.Sprintf("%s %d", names[kind], n))
		}
	}
	return fmt.Sprint(parts)
}

// Log is what the counting clients of one cluster saw.
type Log struct {
	mu       sync.Mutex
	calls    []Counts // by node
	putBytes int
	spans    [][2]time.Time
}

// Wrap puts a counting client in front of every node and returns the
// wrapped clients with the log they share.
func Wrap(nodes []client.NodeClient) ([]client.NodeClient, *Log) {
	log := &Log{calls: make([]Counts, len(nodes))}
	out := make([]client.NodeClient, len(nodes))
	for j, n := range nodes {
		out[j] = &node{NodeClient: n, node: j, log: log}
	}
	return out, log
}

// begin counts one RPC and returns the function that closes its span.
func (l *Log) begin(node int, kind Kind) func() {
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

// Reset forgets everything counted so far.
func (l *Log) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.calls)
	l.putBytes = 0
	l.spans = nil
}

// Calls returns the RPCs counted per node.
func (l *Log) Calls() []Counts {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Counts(nil), l.calls...)
}

// Total returns the RPCs counted over every node.
func (l *Log) Total() Counts {
	var total Counts
	for _, calls := range l.Calls() {
		for kind, n := range calls {
			total[kind] += n
		}
	}
	return total
}

// PutBytes returns the chunk payload bytes PutChunk and CompareAndPut
// carried.
func (l *Log) PutBytes() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.putBytes
}

// Rounds counts the disjoint pieces of the union of the RPC spans.
func (l *Log) Rounds() int {
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

// node counts and holds every RPC to one node.
type node struct {
	client.NodeClient
	node int
	log  *Log
}

// hold delays an RPC by Hold, or until its context ends.
func hold(ctx context.Context) error { return clock.Sleep(ctx, clock.Real{}, Hold) }

func (c *node) ReadChunk(ctx context.Context, id client.ChunkID) (client.Chunk, error) {
	defer c.log.begin(c.node, ReadChunk)()
	if err := hold(ctx); err != nil {
		return client.Chunk{}, err
	}
	return c.NodeClient.ReadChunk(ctx, id)
}

func (c *node) ReadVersions(ctx context.Context, id client.ChunkID) ([]uint64, []client.BlockSum, error) {
	defer c.log.begin(c.node, ReadVersions)()
	if err := hold(ctx); err != nil {
		return nil, nil, err
	}
	return c.NodeClient.ReadVersions(ctx, id)
}

func (c *node) PutChunk(ctx context.Context, id client.ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	defer c.log.begin(c.node, PutChunk)()
	c.log.mu.Lock()
	c.log.putBytes += len(data)
	c.log.mu.Unlock()
	if err := hold(ctx); err != nil {
		return err
	}
	return c.NodeClient.PutChunk(ctx, id, data, versions, sums...)
}

func (c *node) CompareAndAdd(ctx context.Context, id client.ChunkID, slot int, expect, next uint64, delta []byte, sum ...client.BlockSum) error {
	defer c.log.begin(c.node, CompareAndAdd)()
	if err := hold(ctx); err != nil {
		return err
	}
	return c.NodeClient.CompareAndAdd(ctx, id, slot, expect, next, delta, sum...)
}

func (c *node) PutChunkIfFresher(ctx context.Context, id client.ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	defer c.log.begin(c.node, Other)()
	if err := hold(ctx); err != nil {
		return err
	}
	return c.NodeClient.PutChunkIfFresher(ctx, id, data, versions, sums...)
}

func (c *node) CompareAndPut(ctx context.Context, id client.ChunkID, slot int, expect, next uint64, data []byte, sum ...client.BlockSum) error {
	defer c.log.begin(c.node, CompareAndPut)()
	c.log.mu.Lock()
	c.log.putBytes += len(data)
	c.log.mu.Unlock()
	if err := hold(ctx); err != nil {
		return err
	}
	return c.NodeClient.CompareAndPut(ctx, id, slot, expect, next, data, sum...)
}

func (c *node) DeleteChunk(ctx context.Context, id client.ChunkID) error {
	defer c.log.begin(c.node, DeleteChunk)()
	if err := hold(ctx); err != nil {
		return err
	}
	return c.NodeClient.DeleteChunk(ctx, id)
}

// DeleteChunks counts a vectored removal as one DeleteChunk-kind RPC:
// one frame, one hold, whatever the number of ids. A wrapped node
// without client.ChunkRemover is sent one DeleteChunk per id behind
// that single count.
func (c *node) DeleteChunks(ctx context.Context, ids []client.ChunkID) error {
	defer c.log.begin(c.node, DeleteChunk)()
	if err := hold(ctx); err != nil {
		return err
	}
	return client.DeleteChunks(ctx, c.NodeClient, ids)
}
