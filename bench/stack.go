package main

import (
	"context"
	"fmt"
	"net"

	"trapquorum"
	"trapquorum/client"
	gwclient "trapquorum/client/gateway"
	"trapquorum/internal/gateway"
	"trapquorum/internal/service"
	"trapquorum/internal/trapezoid"
	"trapquorum/placement"
	"trapquorum/transport/tcp"
)

// stack is one complete set-up: the nodes, the coordinator in front of
// them (an ObjectStore, or a service fleet behind a gateway server) and
// one API handle per client.
type stack struct {
	sp      spec
	tr      *tracer
	cluster *cluster
	apis    []objectAPI

	// direct path
	store *trapquorum.ObjectStore

	// gateway path
	fleet       *service.Fleet
	nodeClients []*tcp.NodeClient
	gw          *gateway.Server
	gwLn        *countingListener
	gwServed    chan error
	conns       []*gwclient.Conn
}

const tenantName = "bench"

func startStack(ctx context.Context, sp spec, root string, tr *tracer) (*stack, error) {
	cl, err := startCluster(root, clusterNodes, tr)
	if err != nil {
		return nil, err
	}
	s := &stack{sp: sp, tr: tr, cluster: cl}
	if sp.gateway {
		err = s.openGateway(ctx)
	} else {
		err = s.openDirect(ctx)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// openDirect opens the public ObjectStore over a NetBackend, exactly
// the call an embedding application makes.
func (s *stack) openDirect(ctx context.Context) error {
	nb := trapquorum.NewNetBackend(s.cluster.addrs(0))
	var backend trapquorum.Backend = nb
	if s.tr != nil {
		backend = &tracedBackend{NetBackend: nb, tr: s.tr}
	}
	store, err := trapquorum.Open(ctx,
		trapquorum.WithBackend(backend),
		trapquorum.WithCode(codeN, codeK),
		trapquorum.WithTrapezoid(trapA, trapB, trapH, trapW),
		trapquorum.WithBlockSize(s.sp.blockSize))
	if err != nil {
		return err
	}
	s.store = store
	for i := 0; i < s.sp.clients; i++ {
		s.apis = append(s.apis, store)
	}
	return nil
}

// openGateway builds the serving tier the way cmd/trapgate does, with
// the service.Config and round-robin placement trapquorum.Open would
// build, and dials one gateway connection per client.
func (s *stack) openGateway(ctx context.Context) error {
	nodes := s.dialNodes(0)
	place, err := placement.NewRoundRobin(clusterNodes)
	if err != nil {
		return err
	}
	s.fleet, err = service.NewFleet(nodes, service.Config{
		N: codeN, K: codeK,
		Shape: trapezoid.Shape{A: trapA, B: trapB, H: trapH}, W: trapW,
		BlockSize:         s.sp.blockSize,
		Placement:         place,
		CodingParallelism: 1,
	})
	if err != nil {
		return err
	}
	var tenants gateway.TenantProvider = gateway.FleetTenants{Fleet: s.fleet}
	if s.tr != nil {
		tenants = tracedTenants{inner: tenants, tr: s.tr}
	}
	s.gw = gateway.NewServer(tenants, gateway.Config{})
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.gwLn = &countingListener{Listener: raw}
	s.gwServed = make(chan error, 1)
	go func() { s.gwServed <- s.gw.Serve(s.gwLn) }()
	for i := 0; i < s.sp.clients; i++ {
		conn, err := gwclient.Dial(ctx, raw.Addr().String(), tenantName)
		if err != nil {
			return err
		}
		s.conns = append(s.conns, conn)
		s.apis = append(s.apis, conn)
	}
	return nil
}

// dialNodes builds TCP node clients for cluster nodes from..end.
func (s *stack) dialNodes(from int) []client.NodeClient {
	var nodes []client.NodeClient
	for _, addr := range s.cluster.addrs(from) {
		cl := tcp.NewClient(addr)
		s.nodeClients = append(s.nodeClients, cl)
		nodes = append(nodes, cl)
	}
	if s.tr != nil {
		nodes = wrapNodeClients(s.tr, from, nodes)
	}
	return nodes
}

// coreCounters are the protocol counters both paths expose publicly.
type coreCounters struct {
	failedWrites, directReads, decodeReads, rollbacks, hedged int64
}

func (s *stack) coreCounters() coreCounters {
	if s.store != nil {
		m := s.store.Metrics()
		return coreCounters{m.FailedWrites, m.DirectReads, m.DecodeReads, m.Rollbacks, m.HedgedRPCs}
	}
	m := s.fleet.Metrics()
	return coreCounters{m.FailedWrites, m.DirectReads, m.DecodeReads, m.Rollbacks, m.HedgedRPCs}
}

// growAndRecode boots growNodes more nodes and migrates every object
// to the (growN, growK) code over the enlarged roster. It serves the
// rebuild phase, which only the gateway-path bulk-stream workload has.
func (s *stack) growAndRecode(ctx context.Context) error {
	first := len(s.cluster.nodes)
	if err := s.cluster.grow(growNodes); err != nil {
		return err
	}
	if _, err := s.fleet.AddNodeClients(s.dialNodes(first)...); err != nil {
		return err
	}
	active := make([]int, len(s.cluster.nodes))
	for i := range active {
		active[i] = i
	}
	return s.fleet.Reconfigure(ctx, service.ReconfigSpec{
		N: growN, K: growK, Shape: trapezoid.Shape{A: growA, B: growB, H: growH}, W: growW, Active: active,
	})
}

// close tears the whole set-up down: clients, gateway, coordinator,
// nodes. It is safe on a partly built stack.
func (s *stack) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	for _, c := range s.conns {
		c.Close()
	}
	if s.gw != nil {
		s.gw.Close()
		if s.gwServed != nil {
			<-s.gwServed
		}
	}
	if s.store != nil {
		keep(s.store.Close())
	}
	for _, c := range s.nodeClients {
		keep(c.Close())
	}
	if s.cluster != nil {
		if err := s.cluster.stop(); err != nil {
			keep(fmt.Errorf("stopping nodes: %w", err))
		}
	}
	return first
}
