package main

import (
	"fmt"
	"io/fs"
	"net"
	"path/filepath"
	"time"

	"trapquorum/internal/chaosnet"
	"trapquorum/internal/diskstore"
	"trapquorum/internal/nodeengine"
	"trapquorum/transport/tcp"
)

// node is one in-process storage node, built the way
// `trapnode -dir <dir> -group-commit` builds it: diskstore (fsync on,
// group commit on) → nodeengine → transport/tcp server on loopback.
type node struct {
	idx  int
	dir  string
	addr string

	engine *nodeengine.Engine
	srv    *tcp.NodeServer
	served chan error
	ln     *countingListener
	link   *chaosnet.Link
	down   bool // stopped; a second stop is a no-op
}

// startNode opens (or reopens) the node's directory and serves it on
// addr ("127.0.0.1:0" picks a port; a restart passes the old address).
func startNode(idx int, dir, addr string, tr *tracer) (*node, error) {
	ds, err := diskstore.Open(dir, diskstore.WithSyncWrites(true), diskstore.WithGroupCommit(-1, 0))
	if err != nil {
		return nil, err
	}
	var store nodeengine.ChunkStore = ds
	if tr != nil {
		store = &tracedStore{inner: ds, node: idx, tr: tr}
	}
	engine := nodeengine.New(store, nodeengine.WithName(fmt.Sprintf("node %d", idx)))
	var svc tcp.Service = engine
	if tr != nil {
		svc = &tracedService{inner: engine, node: idx, tr: tr}
	}
	raw, err := net.Listen("tcp", addr)
	if err != nil {
		engine.Close()
		return nil, err
	}
	n := &node{
		idx: idx, dir: dir, addr: raw.Addr().String(),
		engine: engine,
		srv:    tcp.NewServer(svc),
		served: make(chan error, 1),
		ln:     &countingListener{Listener: raw},
		link:   chaosnet.NewLink(int64(idx) + 1),
	}
	go func() { n.served <- n.srv.Serve(chaosnet.WrapListener(n.ln, n.link)) }()
	return n, nil
}

// stop closes the server, then the engine (which closes the store).
func (n *node) stop() error {
	if n.down {
		return nil
	}
	n.down = true
	err := n.srv.Close()
	if serr := <-n.served; err == nil {
		err = serr
	}
	if cerr := n.engine.Close(); err == nil {
		err = cerr
	}
	return err
}

// cluster is the set of nodes of one set-up, rooted at one directory.
type cluster struct {
	root  string
	tr    *tracer
	nodes []*node
}

func startCluster(root string, n int, tr *tracer) (*cluster, error) {
	c := &cluster{root: root, tr: tr}
	if err := c.grow(n); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// grow boots count more nodes.
func (c *cluster) grow(count int) error {
	for i := 0; i < count; i++ {
		idx := len(c.nodes)
		n, err := startNode(idx, filepath.Join(c.root, fmt.Sprintf("node%02d", idx)), "127.0.0.1:0", c.tr)
		if err != nil {
			return fmt.Errorf("node %d: %w", idx, err)
		}
		c.nodes = append(c.nodes, n)
	}
	return nil
}

func (c *cluster) addrs(from int) []string {
	out := make([]string, 0, len(c.nodes)-from)
	for _, n := range c.nodes[from:] {
		out = append(out, n.addr)
	}
	return out
}

func (c *cluster) stop() error {
	var first error
	for _, n := range c.nodes {
		if n == nil {
			continue
		}
		if err := n.stop(); err != nil && first == nil {
			first = fmt.Errorf("node %d: %w", n.idx, err)
		}
	}
	return first
}

// restart reopens every (stopped) node from its directory on its old
// address. A port can linger briefly after close; retry for a moment.
func (c *cluster) restart() error {
	for i, old := range c.nodes {
		var n *node
		var err error
		for attempt := 0; attempt < 50; attempt++ {
			if n, err = startNode(old.idx, old.dir, old.addr, c.tr); err == nil {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		if err != nil {
			return fmt.Errorf("node %d: %w", old.idx, err)
		}
		c.nodes[i] = n
	}
	return nil
}

// setDelay injects a per-burst delay on every node link, both ways.
func (c *cluster) setDelay(d time.Duration) {
	f := chaosnet.Faults{Delay: d}
	for _, n := range c.nodes {
		n.link.SetFaults(f, f)
	}
}

// wireBytes is the byte count that crossed the node listeners so far,
// both directions.
func (c *cluster) wireBytes() int64 {
	var total int64
	for _, n := range c.nodes {
		total += n.ln.bytes.Load()
	}
	return total
}

// storedBytes sums the regular-file bytes under every node directory.
// Call it with the nodes stopped, so nothing is in flight.
func (c *cluster) storedBytes() (int64, error) {
	var total int64
	err := filepath.WalkDir(c.root, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// engineCounters sums the engines' public counters over the cluster.
type engineCounters struct{ versionQueries, versionRejects int64 }

func (c *cluster) engineCounters() engineCounters {
	var e engineCounters
	for _, n := range c.nodes {
		m := n.engine.Metrics()
		e.versionQueries += m.VersionQueries.Load()
		e.versionRejects += m.VersionRejects.Load()
	}
	return e
}
