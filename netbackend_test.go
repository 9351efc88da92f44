package trapquorum_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"trapquorum"
	"trapquorum/client"
	"trapquorum/internal/diskstore"
	"trapquorum/internal/nodeengine"
	"trapquorum/transport/tcp"
)

// tcpNode is one "machine" of the loopback fleet: a durable disk
// store, a node engine and a TCP server, restartable on a fixed
// address like a real daemon.
type tcpNode struct {
	t      testing.TB
	dir    string
	addr   string
	fsync  bool // fsync every WAL batch, as trapnode does
	engine *nodeengine.Engine
	srv    *tcp.NodeServer
}

func (n *tcpNode) start() {
	n.t.Helper()
	store, err := diskstore.Open(n.dir, diskstore.WithSyncWrites(n.fsync))
	if err != nil {
		n.t.Fatal(err)
	}
	n.engine = nodeengine.New(store, nodeengine.WithName("node@"+n.addr))
	n.srv = tcp.NewServer(n.engine)
	ln, err := net.Listen("tcp", n.addr)
	if err != nil {
		n.t.Fatal(err)
	}
	n.addr = ln.Addr().String()
	go n.srv.Serve(ln)
}

// crash kills the node the way a process death does: listener and
// connections drop, the store's file handles close, nothing is
// flushed beyond what the store already made durable.
func (n *tcpNode) crash() {
	n.t.Helper()
	if err := n.srv.Close(); err != nil {
		n.t.Fatal(err)
	}
	if err := n.engine.Close(); err != nil {
		n.t.Fatal(err)
	}
}

// startFleet boots n durable TCP nodes on loopback.
func startFleet(t testing.TB, n int) []*tcpNode { return bootFleet(t, n, false) }

// bootFleet is startFleet, fsyncing every WAL batch when fsync is set.
func bootFleet(t testing.TB, n int, fsync bool) []*tcpNode {
	t.Helper()
	nodes := make([]*tcpNode, n)
	for i := range nodes {
		nodes[i] = &tcpNode{
			t:     t,
			dir:   filepath.Join(t.TempDir(), fmt.Sprintf("node%d", i)),
			addr:  "127.0.0.1:0",
			fsync: fsync,
		}
		nodes[i].start()
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.srv.Close()
			nd.engine.Close()
		}
	})
	return nodes
}

func fleetAddrs(nodes []*tcpNode) []string {
	addrs := make([]string, len(nodes))
	for i, nd := range nodes {
		addrs[i] = nd.addr
	}
	return addrs
}

// TestNetBackendEndToEnd drives a full ObjectStore workload — Put,
// Get, WriteAt, ReadAt, Scrub, RepairNode, Delete — over real TCP
// sockets and real on-disk stores, including a node crash mid-run
// (must surface as node-down, never hang), a disk replacement and the
// repair that heals it.
func TestNetBackendEndToEnd(t *testing.T) {
	ctx := context.Background()
	nodes := startFleet(t, 15)
	backend := trapquorum.NewNetBackend(fleetAddrs(nodes), tcp.WithDialTimeout(2*time.Second))

	store, err := trapquorum.Open(ctx,
		trapquorum.WithBackend(backend),
		trapquorum.WithCode(15, 8),
		trapquorum.WithTrapezoid(2, 3, 1, 3),
		trapquorum.WithBlockSize(128),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	// Put + Get through the network plane.
	payload := bytes.Repeat([]byte("trapezoid over tcp! "), 100) // 2000 bytes → 2 stripes
	if err := store.Put(ctx, "vm.img", payload); err != nil {
		t.Fatal(err)
	}
	got, err := store.Get(ctx, "vm.img")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("network round trip corrupted object")
	}

	// In-place update: parity deltas over the wire.
	patch := []byte("PATCHED-IN-PLACE")
	if err := store.WriteAt(ctx, "vm.img", 256, patch); err != nil {
		t.Fatal(err)
	}
	copy(payload[256:], patch)
	span, err := store.ReadAt(ctx, "vm.img", 200, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(span, payload[200:328]) {
		t.Fatal("ReadAt after WriteAt returned stale bytes")
	}

	// Fault injection is a simulator feature; over a real transport it
	// must refuse with the typed error, not panic.
	if err := store.CrashNode(3); !errors.Is(err, trapquorum.ErrNotSupported) {
		t.Fatalf("CrashNode over NetBackend: %v, want ErrNotSupported", err)
	}

	// Crash a real node mid-run: listener and connections die.
	nodes[3].crash()

	// Degraded reads must keep working, promptly (the dead node is
	// node-down, not a hang).
	done := make(chan error, 1)
	go func() {
		g, err := store.Get(ctx, "vm.img")
		if err == nil && !bytes.Equal(g, payload) {
			err = errors.New("degraded get corrupted object")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("degraded get: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("degraded get hung on a crashed node")
	}

	// A fresh Put needs full placement and must fail fast with the
	// node-down sentinel visible through the OpError chain.
	err = store.Put(ctx, "other.img", bytes.Repeat([]byte{1}, 300))
	if !errors.Is(err, client.ErrNodeDown) {
		t.Fatalf("put with a crashed node: %v, want ErrNodeDown in the chain", err)
	}

	// Scrub sees the dead node as unreachable, not as corruption.
	reports, err := store.Scrub(ctx, "vm.img")
	if err != nil {
		t.Fatal(err)
	}
	sawUnreachable := false
	for _, r := range reports {
		if r.ParityMismatch {
			t.Fatalf("scrub reported corruption: %+v", r)
		}
		// The crashed cluster node holds one shard of each stripe
		// (which one depends on the placement's rotation).
		sawUnreachable = sawUnreachable || len(r.UnreachableShards) > 0
	}
	if !sawUnreachable {
		t.Fatal("scrub did not flag the crashed node's shards unreachable")
	}

	// Disk replacement: the node comes back empty on a new disk and is
	// rebuilt by exact repair over the wire.
	if err := os.RemoveAll(nodes[3].dir); err != nil {
		t.Fatal(err)
	}
	nodes[3].start() // same address, empty store
	rebuilt, err := store.RepairNode(ctx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == 0 {
		t.Fatal("repair rebuilt nothing on the replaced disk")
	}

	// The fleet is whole again: scrub healthy, new writes flow.
	reports, err = store.Scrub(ctx, "vm.img")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.Healthy {
			t.Fatalf("post-repair scrub: %+v", r)
		}
	}
	if err := store.Put(ctx, "other.img", bytes.Repeat([]byte{1}, 300)); err != nil {
		t.Fatal(err)
	}
	if err := store.Delete(ctx, "vm.img"); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Get(ctx, "vm.img"); !errors.Is(err, trapquorum.ErrUnknownKey) {
		t.Fatalf("get after delete: %v", err)
	}
}

// TestNetBackendDurability: chunks written over the wire survive a
// whole-fleet stop/start (daemon restart on the same directories).
func TestNetBackendDurability(t *testing.T) {
	ctx := context.Background()
	nodes := startFleet(t, 15)
	payload := bytes.Repeat([]byte("durable"), 64)

	open := func() *trapquorum.ObjectStore {
		t.Helper()
		store, err := trapquorum.Open(ctx,
			trapquorum.WithBackend(trapquorum.NewNetBackend(fleetAddrs(nodes))),
			trapquorum.WithCode(15, 8),
			trapquorum.WithTrapezoid(2, 3, 1, 3),
			trapquorum.WithBlockSize(64),
		)
		if err != nil {
			t.Fatal(err)
		}
		return store
	}

	store := open()
	if err := store.Put(ctx, "persist.img", payload); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Stop every daemon, then bring the fleet back from disk.
	for _, nd := range nodes {
		nd.crash()
	}
	for _, nd := range nodes {
		nd.start()
	}

	store2 := open()
	defer store2.Close()
	// The object-key registry is client-side state, so a fresh store
	// cannot Get the key back; durability is a node property. Assert
	// every node still serves exactly the shards it held: one chunk
	// per node per stripe of the object.
	stripes := (len(payload) + 64*8 - 1) / (64 * 8)
	total := 0
	for _, nd := range nodes {
		n, err := nd.engine.ChunkCount(ctx)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if want := 15 * stripes; total != want {
		t.Fatalf("fleet serves %d chunks after restart, want %d", total, want)
	}
}
