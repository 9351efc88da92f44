// Package chaosnet is the wire-level network-chaos engine: a
// fault-injecting net.Conn/net.Listener wrapper and an in-process TCP
// proxy that can drop, delay, jitter, bandwidth-cap, blackhole and
// reset individual node links — per direction, so partitions can be
// asymmetric — deterministically under a seed. The partition chaos
// suite scripts it from tests; tools/chaosproxy exposes the same
// engine as a CLI so an operator can run a fire drill against a live
// trapnode fleet.
//
// One Link models the network path between a client and one node. Its
// two directions are independent: Up carries bytes toward the node,
// Down carries the node's answers back. Faults are consulted on every
// burst of bytes crossing the link, so they can be changed while
// connections are open (a live link can start flapping mid-workload).
//
// Fault semantics mirror what real networks do:
//
//   - Drop: with probability DropProb per burst the stream dies
//     silently — this and every later burst in the direction vanish,
//     like a TCP stream whose segments stopped arriving. The peer
//     observes a hang, not an error; only its deadline saves it.
//   - Reset: with probability ResetProb per burst the connection is
//     torn down immediately (RST-style). ResetAfter cuts the
//     connection after exactly N bytes in the direction — the
//     mid-frame tear the transport layer must classify as a node
//     failure, not a decode error.
//   - Delay/Jitter: each burst waits Delay plus a uniform extra in
//     [0, Jitter) before crossing.
//   - Bandwidth: bytes cross at most this fast; a few bytes/s is a
//     slow-loris.
//   - Blackhole: every burst vanishes (Drop with probability 1,
//     applied to already-open connections too).
//   - Partition (link level): new connections are refused and open
//     ones reset — the fast, RST-visible kind of partition, as
//     opposed to Blackhole's silent one.
//
// Determinism: every random decision draws from per-connection
// generators derived from the link seed and a connection counter, so
// a test that opens connections and writes bursts in a fixed order
// sees the same faults on every run.
package chaosnet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"trapquorum/internal/clock"
)

// ErrLinkClosed reports IO on a connection the link tore down.
var ErrLinkClosed = errors.New("chaosnet: connection torn by link fault")

// Direction selects one of a link's two byte streams.
type Direction int

const (
	// Up carries bytes from the client toward the node.
	Up Direction = iota
	// Down carries the node's answers back to the client.
	Down
)

// String names the direction for logs.
func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// Faults is the fault set applied to one direction of a link. The
// zero value injects nothing.
type Faults struct {
	// Delay is added to every burst crossing the direction.
	Delay time.Duration
	// Jitter adds a uniform extra in [0, Jitter) per burst.
	Jitter time.Duration
	// Bandwidth caps the direction to this many bytes per second
	// (0 = unlimited). A few bytes per second is a slow-loris.
	Bandwidth int
	// DropProb is the per-burst probability the stream dies silently:
	// the burst and everything after it in this direction vanish, and
	// the peer hangs until its own deadline. Models packet loss
	// stalling a TCP stream.
	DropProb float64
	// ResetProb is the per-burst probability the connection is reset.
	ResetProb float64
	// ResetAfter tears the connection after exactly this many bytes
	// have crossed the direction (0 = never) — a reset between a
	// frame's header and body.
	ResetAfter int64
	// Blackhole swallows every burst, open connections included.
	Blackhole bool
}

// zero reports whether the fault set injects nothing.
func (f Faults) zero() bool { return f == Faults{} }

// Stats counts what a link did to its traffic. All fields are
// cumulative and safe to read while the link is in use.
type Stats struct {
	// Conns is how many connections the link admitted.
	Conns int64
	// RefusedDials is how many connection attempts were refused.
	RefusedDials int64
	// DroppedBursts counts bursts that vanished (drop or blackhole).
	DroppedBursts int64
	// Resets counts connections torn by reset faults.
	Resets int64
}

// Link models the network path between a client and one node: the
// shared fault state every connection crossing the path consults.
// Safe for concurrent use; faults apply to connections already open.
type Link struct {
	mu       sync.Mutex
	seed     int64
	connSeq  int64
	up, down Faults
	refuse   bool

	conns map[*connEntry]struct{}

	refused atomic.Int64
	admits  atomic.Int64
	drops   atomic.Int64
	resets  atomic.Int64
}

// connEntry tracks one admitted connection (or proxied pair) so a
// Partition can tear it down.
type connEntry struct {
	seq       int64
	closeOnce sync.Once
	closers   []net.Conn
	ctx       context.Context // ended by close
	cancel    context.CancelFunc
}

func (e *connEntry) close() {
	e.closeOnce.Do(func() {
		e.cancel()
		for _, c := range e.closers {
			c.Close()
		}
	})
}

// NewLink builds a healthy link whose fault decisions derive from
// seed.
func NewLink(seed int64) *Link {
	return &Link{
		seed:  seed,
		conns: make(map[*connEntry]struct{}),
	}
}

// SetFaults installs the per-direction fault sets, replacing the
// previous ones. Connections already open see the new faults on their
// next burst.
func (l *Link) SetFaults(up, down Faults) {
	l.mu.Lock()
	l.up, l.down = up, down
	l.mu.Unlock()
}

// Partition cuts the link the loud way: new connections are refused
// and every open one is reset. The peer sees connection errors
// immediately — the RST-visible partition.
func (l *Link) Partition() {
	l.mu.Lock()
	l.refuse = true
	entries := make([]*connEntry, 0, len(l.conns))
	for e := range l.conns {
		entries = append(entries, e)
	}
	l.mu.Unlock()
	for _, e := range entries {
		e.close()
	}
}

// Blackhole cuts the link the silent way: every burst in both
// directions vanishes, open connections included. Peers hang until
// their deadlines. New connections are still accepted (the TCP
// handshake is terminated locally) and then starve.
func (l *Link) Blackhole() {
	l.mu.Lock()
	l.up.Blackhole = true
	l.down.Blackhole = true
	l.mu.Unlock()
}

// Heal restores the link: dial admission reopens and both directions
// drop their fault sets. Streams already silently dead stay dead —
// the bytes they lost are gone, exactly like a real stalled TCP
// stream; the peer's deadline reaps them and the next dial is clean.
func (l *Link) Heal() {
	l.mu.Lock()
	l.refuse = false
	l.up = Faults{}
	l.down = Faults{}
	l.mu.Unlock()
}

// CutConns resets every open connection without touching the fault
// configuration (a momentary blip).
func (l *Link) CutConns() {
	l.mu.Lock()
	entries := make([]*connEntry, 0, len(l.conns))
	for e := range l.conns {
		entries = append(entries, e)
	}
	l.mu.Unlock()
	for _, e := range entries {
		e.close()
	}
}

// Stats snapshots the link's traffic counters.
func (l *Link) Stats() Stats {
	return Stats{
		Conns:         l.admits.Load(),
		RefusedDials:  l.refused.Load(),
		DroppedBursts: l.drops.Load(),
		Resets:        l.resets.Load(),
	}
}

// faults returns the current fault set for one direction.
func (l *Link) faults(d Direction) Faults {
	l.mu.Lock()
	defer l.mu.Unlock()
	if d == Up {
		return l.up
	}
	return l.down
}

// admit decides one connection attempt. It returns the tracking entry
// on admission and nil on refusal.
func (l *Link) admit(closers ...net.Conn) *connEntry {
	l.mu.Lock()
	if l.refuse {
		l.mu.Unlock()
		l.refused.Add(1)
		return nil
	}
	l.connSeq++
	ctx, cancel := context.WithCancel(context.Background())
	e := &connEntry{seq: l.connSeq, closers: closers, ctx: ctx, cancel: cancel}
	l.conns[e] = struct{}{}
	l.mu.Unlock()
	l.admits.Add(1)
	return e
}

// release forgets a settled connection.
func (l *Link) release(e *connEntry) {
	l.mu.Lock()
	delete(l.conns, e)
	l.mu.Unlock()
}

// newFlow derives the deterministic per-connection, per-direction
// fault stream.
func (l *Link) newFlow(d Direction, e *connEntry) *flow {
	return &flow{
		link: l,
		dir:  d,
		rng:  rand.New(rand.NewSource(l.seed ^ (e.seq * 0x9e3779b97f4a7c) ^ int64(d))),
		ctx:  e.ctx,
	}
}

// flow is the fault state of one direction of one connection.
type flow struct {
	link *Link
	dir  Direction
	rng  *rand.Rand
	ctx  context.Context
	sent int64
	dead bool // stream silently dropped; every later burst vanishes
}

// burst actions.
const (
	actDeliver = iota
	actSwallow
	actReset
	actDeliverReset // deliver a prefix, then reset (ResetAfter mid-burst)
)

// plan decides the fate of one n-byte burst: how long it waits, how
// many bytes cross, and whether the connection survives.
func (f *flow) plan(n int) (sleep time.Duration, deliver int, action int) {
	fa := f.link.faults(f.dir)
	if f.dead || fa.Blackhole {
		f.link.drops.Add(1)
		return 0, 0, actSwallow
	}
	if fa.DropProb > 0 && f.rng.Float64() < fa.DropProb {
		f.dead = true
		f.link.drops.Add(1)
		return 0, 0, actSwallow
	}
	if fa.ResetProb > 0 && f.rng.Float64() < fa.ResetProb {
		f.link.resets.Add(1)
		return 0, 0, actReset
	}
	deliver, action = n, actDeliver
	if fa.ResetAfter > 0 {
		remaining := fa.ResetAfter - f.sent
		if remaining <= 0 {
			f.link.resets.Add(1)
			return 0, 0, actReset
		}
		if int64(n) > remaining {
			deliver, action = int(remaining), actDeliverReset
			f.link.resets.Add(1)
		}
	}
	sleep = fa.Delay
	if fa.Jitter > 0 {
		sleep += time.Duration(f.rng.Int63n(int64(fa.Jitter)))
	}
	if fa.Bandwidth > 0 {
		sleep += time.Duration(int64(deliver) * int64(time.Second) / int64(fa.Bandwidth))
	}
	f.sent += int64(deliver)
	return sleep, deliver, action
}

// wait sleeps the planned duration, abandoning early when the
// connection is torn down. It reports whether the sleep completed.
func (f *flow) wait(d time.Duration) bool {
	return d <= 0 || clock.Sleep(f.ctx, clock.Real{}, d) == nil
}

// Side says which end of the link a wrapped connection sits on, which
// fixes the direction of its reads and writes.
type Side int

const (
	// ClientSide: writes go Up (toward the node), reads come Down.
	ClientSide Side = iota
	// ServerSide: reads arrive Up, writes go Down.
	ServerSide
)

// Conn is a net.Conn crossing a chaos link: every Read and Write
// consults the link's current faults. Build with Link.WrapConn or
// through WrapListener.
type Conn struct {
	net.Conn
	link        *Link
	entry       *connEntry
	read, write *flow
	resetNext   atomic.Bool
}

// WrapConn places an established connection on the link. It returns
// nil when the link refuses the connection (it is closed); callers
// that cannot handle nil should dial through a Proxy instead, which
// models refusal as an immediate close.
func (l *Link) WrapConn(c net.Conn, side Side) *Conn {
	e := l.admit(c)
	if e == nil {
		c.Close()
		return nil
	}
	wc := &Conn{Conn: c, link: l, entry: e}
	if side == ClientSide {
		wc.write, wc.read = l.newFlow(Up, e), l.newFlow(Down, e)
	} else {
		wc.read, wc.write = l.newFlow(Up, e), l.newFlow(Down, e)
	}
	return wc
}

// Read applies the inbound direction's faults: delayed bytes arrive
// late, dropped bytes never arrive (the read keeps waiting, exactly
// like a stalled stream), a reset tears the connection.
func (c *Conn) Read(p []byte) (int, error) {
	for {
		if c.resetNext.Load() {
			c.teardown()
			return 0, ErrLinkClosed
		}
		n, err := c.Conn.Read(p)
		if n > 0 {
			sleep, deliver, action := c.read.plan(n)
			if !c.read.wait(sleep) {
				return 0, ErrLinkClosed
			}
			switch action {
			case actDeliver:
				return n, err
			case actDeliverReset:
				c.resetNext.Store(true)
				return deliver, nil
			case actReset:
				c.teardown()
				return 0, ErrLinkClosed
			case actSwallow:
				// The bytes vanished in transit; keep waiting for more,
				// like a socket whose peer's segments are being lost.
				if err != nil {
					return 0, err
				}
				continue
			}
		}
		if err != nil {
			return 0, err
		}
	}
}

// Write applies the outbound direction's faults. Swallowed writes
// report success — the bytes entered the network and died there,
// which the sender cannot see.
func (c *Conn) Write(p []byte) (int, error) {
	if c.resetNext.Load() {
		c.teardown()
		return 0, ErrLinkClosed
	}
	sleep, deliver, action := c.write.plan(len(p))
	if !c.write.wait(sleep) {
		return 0, ErrLinkClosed
	}
	switch action {
	case actSwallow:
		return len(p), nil
	case actReset:
		c.teardown()
		return 0, ErrLinkClosed
	case actDeliverReset:
		if _, err := c.Conn.Write(p[:deliver]); err != nil {
			return 0, err
		}
		c.teardown()
		return deliver, ErrLinkClosed
	default:
		return c.Conn.Write(p)
	}
}

// Close releases the connection from the link.
func (c *Conn) Close() error {
	c.teardown()
	return nil
}

func (c *Conn) teardown() {
	c.entry.close()
	c.link.release(c.entry)
}

// Listener wraps a net.Listener so every accepted connection crosses
// the link (server side: reads arrive Up, writes leave Down). A
// refused connection is closed immediately — the client sees a reset
// right after its dial, the loopback approximation of a refused SYN.
type Listener struct {
	net.Listener
	link *Link
}

// WrapListener places a listener behind the link.
func WrapListener(ln net.Listener, link *Link) *Listener {
	return &Listener{Listener: ln, link: link}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if wc := l.link.WrapConn(c, ServerSide); wc != nil {
			return wc, nil
		}
		// Refused by the link: the raw conn is already closed; keep
		// accepting so one refusal does not stall the accept loop.
	}
}

// String renders the fault set compactly for logs.
func (f Faults) String() string {
	return fmt.Sprintf("delay=%v jitter=%v bw=%dB/s drop=%.2f reset=%.2f resetAfter=%d blackhole=%v",
		f.Delay, f.Jitter, f.Bandwidth, f.DropProb, f.ResetProb, f.ResetAfter, f.Blackhole)
}
