package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Option customises cluster construction.
type Option func(*options)

type options struct {
	delay DelayFunc
}

// WithDelay installs a latency model applied to every node operation.
func WithDelay(d DelayFunc) Option {
	return func(o *options) { o.delay = d }
}

// FixedDelay returns a DelayFunc imposing the same latency on every
// operation.
func FixedDelay(d time.Duration) DelayFunc {
	return func(string) time.Duration { return d }
}

// UniformDelay returns a DelayFunc drawing latencies uniformly from
// [min, max). It is safe for concurrent use.
func UniformDelay(min, max time.Duration, seed int64) DelayFunc {
	var mu sync.Mutex
	r := rand.New(rand.NewSource(seed))
	return func(string) time.Duration {
		if max <= min {
			return min
		}
		mu.Lock()
		defer mu.Unlock()
		return min + time.Duration(r.Int63n(int64(max-min)))
	}
}

// Cluster is a set of simulated storage nodes. Node i of a stripe's
// placement maps to cluster node i by default; richer placements are
// the protocol layer's concern. The node set can grow while the
// cluster serves traffic (AddNodes — the simulator's half of online
// reconfiguration); a mutex guards the roster, and the nodes
// themselves are safe for concurrent use as before.
type Cluster struct {
	mu     sync.RWMutex
	nodes  []*Node
	delay  DelayFunc // cluster-wide model, applied to grown nodes too
	closed bool
	once   sync.Once
}

// NewCluster starts n node actors.
func NewCluster(n int, opts ...Option) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("sim: cluster needs at least one node, got %d", n)
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	c := &Cluster{nodes: make([]*Node, n), delay: o.delay}
	for i := range c.nodes {
		c.nodes[i] = newNode(NodeID(i), o.delay)
	}
	return c, nil
}

// AddNodes starts count fresh node actors with consecutive ids after
// the current roster and returns them, live immediately — the
// simulator's grow operation. New nodes inherit the cluster-wide
// latency model and start empty; the reconfiguration layer migrates
// data onto them.
func (c *Cluster) AddNodes(count int) ([]*Node, error) {
	if count < 1 {
		return nil, fmt.Errorf("sim: AddNodes(%d): need at least one", count)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClusterClosed
	}
	added := make([]*Node, count)
	for i := range added {
		added[i] = newNode(NodeID(len(c.nodes)), c.delay)
		c.nodes = append(c.nodes, added[i])
	}
	return added, nil
}

// Size returns the number of nodes.
func (c *Cluster) Size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.nodes)
}

// Node returns node i. It panics on an out-of-range index.
func (c *Cluster) Node(i int) *Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if i < 0 || i >= len(c.nodes) {
		panic(fmt.Sprintf("sim: node %d out of [0,%d)", i, len(c.nodes)))
	}
	return c.nodes[i]
}

// Nodes returns the nodes in id order (a copy: the roster can grow
// concurrently).
func (c *Cluster) Nodes() []*Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]*Node(nil), c.nodes...)
}

// SetNodeDelay replaces node i's latency model (nil restores zero
// latency), leaving every other node on the cluster-wide model. Used
// to inject per-node stragglers for tail-latency experiments.
func (c *Cluster) SetNodeDelay(i int, d DelayFunc) { c.Node(i).SetDelay(d) }

// SetLinkFault replaces the fault model of the network path to node
// i (the zero fault heals it). seed keeps the loss rolls
// deterministic; pass a per-node offset of one base seed for
// independent but reproducible links.
func (c *Cluster) SetLinkFault(i int, f LinkFault, seed int64) { c.Node(i).SetLinkFault(f, seed) }

// HealAllLinks removes every link fault.
func (c *Cluster) HealAllLinks() {
	for _, n := range c.Nodes() {
		n.SetLinkFault(LinkFault{}, 0)
	}
}

// Crash fail-stops node i.
func (c *Cluster) Crash(i int) { c.Node(i).Crash() }

// Restart revives node i with its storage intact.
func (c *Cluster) Restart(i int) { c.Node(i).Restart() }

// AliveCount returns how many nodes are currently up.
func (c *Cluster) AliveCount() int {
	alive := 0
	for _, n := range c.Nodes() {
		if !n.Down() {
			alive++
		}
	}
	return alive
}

// ApplyMask sets each node's up/down state from the mask (true = up).
// The mask length must equal the cluster size. Used by the Monte-Carlo
// harness to sample the paper's iid availability model.
func (c *Cluster) ApplyMask(up []bool) error {
	nodes := c.Nodes()
	if len(up) != len(nodes) {
		return fmt.Errorf("sim: mask length %d, cluster size %d", len(up), len(nodes))
	}
	for i, u := range up {
		if u {
			nodes[i].Restart()
		} else {
			nodes[i].Crash()
		}
	}
	return nil
}

// RestartAll revives every node.
func (c *Cluster) RestartAll() {
	for _, n := range c.Nodes() {
		n.Restart()
	}
}

// Close stops every node actor. The cluster is unusable afterwards.
func (c *Cluster) Close() {
	c.once.Do(func() {
		c.mu.Lock()
		c.closed = true
		nodes := append([]*Node(nil), c.nodes...)
		c.mu.Unlock()
		for _, n := range nodes {
			n.stop()
		}
	})
}
