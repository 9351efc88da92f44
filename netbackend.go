package trapquorum

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"trapquorum/client"
	"trapquorum/transport/tcp"
)

// NetBackend runs the store on a fleet of real network storage nodes:
// one TCP node client per address, each talking to a node daemon
// (cmd/trapnode, or any server built on transport/tcp over a node
// engine). It is the production counterpart of SimBackend.
//
// NetBackend intentionally does not implement FaultInjector: a real
// fleet's nodes crash on their own, and an unreachable node already
// surfaces as client.ErrNodeDown through the protocol. Store-level
// CrashNode/RestartNode/AliveNodes/WipeNode therefore return
// ErrNotSupported wraps on this backend.
type NetBackend struct {
	addrs []string
	opts  []tcp.ClientOption

	mu      sync.Mutex
	clients []*tcp.NodeClient
	opened  bool
	closed  bool
}

// NewNetBackend builds a backend over the given node addresses, in
// cluster-node order: address i serves cluster node i, so the list's
// length must equal the cluster size the store derives from its
// placement. The options apply to every per-node client.
func NewNetBackend(addrs []string, opts ...tcp.ClientOption) *NetBackend {
	return &NetBackend{addrs: append([]string(nil), addrs...), opts: opts}
}

// Open implements Backend.
func (b *NetBackend) Open(ctx context.Context, n int) ([]client.NodeClient, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.opened || b.closed {
		return nil, errors.New("trapquorum: net backend already opened; use one backend per store")
	}
	if n != len(b.addrs) {
		return nil, fmt.Errorf("trapquorum: cluster needs %d nodes, NetBackend has %d addresses", n, len(b.addrs))
	}
	b.clients = make([]*tcp.NodeClient, n)
	nodes := make([]client.NodeClient, n)
	for i, addr := range b.addrs {
		cl := tcp.NewClient(addr, b.opts...)
		b.clients[i] = cl
		nodes[i] = cl
	}
	b.opened = true
	return nodes, nil
}

// GrowAddrs implements AddrGrowableBackend: it appends one node per
// address after the current roster — address i of the slice becomes
// cluster node NodeCount()+i — and returns their clients. The daemons
// are dialed lazily like Open-time nodes, but each is pinged first so
// a typo'd address fails the grow instead of surfacing as a dead
// cluster node mid-migration. Used by ObjectStore.Reconfigure to grow
// the fleet online.
func (b *NetBackend) GrowAddrs(ctx context.Context, addrs []string) ([]client.NodeClient, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(addrs) == 0 {
		return nil, errors.New("trapquorum: GrowAddrs with no addresses")
	}
	if _, open := b.openClients(); !open {
		return nil, errors.New("trapquorum: net backend not open")
	}
	added := make([]*tcp.NodeClient, 0, len(addrs))
	nodes := make([]client.NodeClient, 0, len(addrs))
	for i, addr := range addrs {
		cl := tcp.NewClient(addr, b.opts...)
		if err := cl.Ping(ctx); err != nil {
			cl.Close()
			for _, prev := range added {
				prev.Close()
			}
			return nil, fmt.Errorf("trapquorum: GrowAddrs: new node %d (%s): %w", i, addr, err)
		}
		added = append(added, cl)
		nodes = append(nodes, cl)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.opened || b.closed {
		for _, cl := range added {
			cl.Close()
		}
		return nil, errors.New("trapquorum: net backend closed during GrowAddrs")
	}
	b.clients = append(b.clients, added...)
	b.addrs = append(b.addrs, addrs...)
	return nodes, nil
}

// Close implements Backend: it closes every node client's connection
// pool. The remote daemons keep running — their lifecycle belongs to
// whoever deployed them.
func (b *NetBackend) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	var first error
	for _, cl := range b.clients {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	b.clients = nil
	return first
}

// openClients returns the node clients and true while the backend is
// open — opened and not yet closed — and false otherwise.
func (b *NetBackend) openClients() ([]*tcp.NodeClient, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.opened || b.closed {
		return nil, false
	}
	return b.clients, true
}

// nodeClient returns node's client — nil when the backend has no such
// node — and whether the backend is open.
func (b *NetBackend) nodeClient(node int) (*tcp.NodeClient, bool) {
	clients, open := b.openClients()
	if node < 0 || node >= len(clients) {
		return nil, open
	}
	return clients[node], open
}

// ProbeNode implements NodeProber for the self-healing monitor: one
// TCP ping against the node's address. An unreachable daemon reports
// an error wrapping client.ErrNodeDown.
func (b *NetBackend) ProbeNode(ctx context.Context, node int) error {
	cl, open := b.nodeClient(node)
	if !open {
		return errors.New("trapquorum: net backend not open")
	}
	if cl == nil {
		return fmt.Errorf("trapquorum: probe of unknown node %d", node)
	}
	return cl.Ping(ctx)
}

// NodeUsable implements the node gate consulted by the protocol's
// fan-out engine: false while the node's circuit breaker is open (the
// engine then fails the node locally instead of queueing an RPC that
// the transport would fast-fail anyway). Nodes of an unopened backend
// and clients without a resilience policy are always usable.
func (b *NetBackend) NodeUsable(node int) bool {
	cl, _ := b.nodeClient(node)
	if cl == nil {
		return true
	}
	return cl.Usable()
}

// NodeLatency reports the smoothed round-trip latency of node's link,
// and false before the first successful exchange. The self-healing
// monitor uses it as the brownout signal.
func (b *NetBackend) NodeLatency(node int) (time.Duration, bool) {
	cl, _ := b.nodeClient(node)
	if cl == nil {
		return 0, false
	}
	return cl.Latency()
}

// LinkHealth snapshots every node link's breaker state and resilience
// counters, in cluster-node order. Empty before Open or after Close.
func (b *NetBackend) LinkHealth() []client.LinkHealth {
	clients, open := b.openClients()
	if !open {
		return nil
	}
	links := make([]client.LinkHealth, len(clients))
	for i, cl := range clients {
		links[i] = cl.LinkHealth()
		links[i].Node = i
	}
	return links
}

// ResilienceStats aggregates the fleet's breaker and retry-budget
// counters. Budgets shared by several clients (the default: one
// Resilience value configures the whole backend) are counted once, by
// pointer identity.
func (b *NetBackend) ResilienceStats() client.ResilienceStats {
	clients, open := b.openClients()
	var s client.ResilienceStats
	if !open {
		return s
	}
	budgets := make(map[*tcp.RetryBudget]struct{})
	for _, cl := range clients {
		lh := cl.LinkHealth()
		s.BreakerOpens += lh.BreakerOpens
		s.BreakerFastFails += lh.FastFails
		s.TransportRetries += lh.Retries
		if bd := cl.RetryBudget(); bd != nil {
			s.Enabled = true
			if _, seen := budgets[bd]; !seen {
				budgets[bd] = struct{}{}
				s.RetryBudgetSpent += bd.Spent()
				s.RetryBudgetDenied += bd.Denied()
			}
		}
	}
	return s
}

// Ping probes every node address once, returning the first failure
// (wrapped client.ErrNodeDown for unreachable nodes). Useful as a
// deployment smoke check before opening a store; the protocol itself
// needs no pre-flight.
func (b *NetBackend) Ping(ctx context.Context) error {
	clients, open := b.openClients()
	if !open {
		return errors.New("trapquorum: net backend not open")
	}
	for i, cl := range clients {
		if err := cl.Ping(ctx); err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	return nil
}
