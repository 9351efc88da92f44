// Package service is the storage-system layer over the TRAP-ERC
// protocol: a keyed object store on a cluster larger than one stripe.
// Objects are chunked into stripes of k blocks — every stripe but the
// last of Config.BlockSize, the last right-sized to its bytes — each
// stripe is placed on n of the cluster's nodes by a placement
// strategy, and all reads and in-place updates go through the quorum
// protocol.
//
// This is the layer a storage virtualization middleware (the paper's
// target context) would embed: Put/Get/WriteAt over virtual-disk
// images, strict consistency per block, per-node repair after
// failures. The layer is transport-agnostic: it runs on any set of
// client.NodeClient implementations — the in-process simulator, or a
// fleet of network storage nodes.
//
// # Multi-tenancy
//
// One Fleet owns the cluster substrate — the node clients, one
// protocol instance per placement epoch, the table of stripe handles
// and the global stripe-id allocator — and any number of tenant Stores
// share it. Each Store is
// an isolated keyed namespace with its own directory, optional
// object-count/byte quotas, and per-tenant operation counters; the
// stripes of every tenant draw from the fleet's single allocator, so
// chunk ids never collide across tenants. Repair, scrub and the
// self-healing orchestrator operate at fleet scope: a node repair
// rebuilds every tenant's chunks placed there.
//
// # Caller-named stripes
//
// Beside the allocator, Fleet.SeedStripe registers a stripe under an id
// the caller names, placed shard j on roster node j of the current
// epoch, and Fleet.Stripe hands back its handle and protocol instance.
// The allocator skips past every caller-named id, and the stripe sits
// in the one stripe table with the tenants' stripes, so repair, scrub
// and self-heal cover it too. Reconfigure migrates tenant objects only:
// a caller-named stripe stays in the epoch that seeded it. The root
// package's low-level block store is built on this.
package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"trapquorum/client"
	"trapquorum/internal/core"
	"trapquorum/internal/repairsched"
	"trapquorum/internal/trapezoid"
	"trapquorum/placement"
)

// The fleet is the placement-aware repair target of the self-healing
// orchestrator: repair scope is the cluster, not a tenant namespace.
var _ repairsched.Target = (*Fleet)(nil)

// Service-level errors.
var (
	ErrUnknownKey = errors.New("service: unknown key")
	ErrBadRange   = errors.New("service: range outside object")
	ErrExists     = errors.New("service: key already exists")
)

// Config parameterises a Fleet (and therefore every tenant Store on
// it).
type Config struct {
	// N, K are the erasure-code parameters per stripe.
	N, K int
	// Shape and W parameterise the trapezoid quorum (see trapezoid).
	Shape trapezoid.Shape
	W     int
	// BlockSize is the block size of every full stripe, in bytes. An
	// object's last stripe is right-sized instead: its blocks are the
	// smallest multiple of 64 bytes (at most BlockSize) that holds the
	// bytes left, so a small object stores n/k of its size, not a
	// stripe of padded BlockSize blocks.
	BlockSize int
	// Placement maps stripes to cluster nodes; its node count must
	// be at least N.
	Placement placement.Strategy
	// Concurrency bounds the in-flight per-node RPCs of one quorum
	// operation, and the parallel per-stripe repairs of a node-wide
	// repair (0 = engine defaults; see core.Options).
	Concurrency int
	// CodingParallelism bounds the worker set the erasure data plane
	// fans block segments across. The zero value and 1 both keep
	// coding serial on the calling goroutine (matching the package
	// default); pass an explicit count — e.g. runtime.GOMAXPROCS(0) —
	// to fan segments out (see erasure.WithParallelism).
	CodingParallelism int
	// Hedge enables tail-latency hedging of read-path RPCs (see
	// core.HedgeConfig).
	Hedge core.HedgeConfig
	// NodeGate, when non-nil, is consulted before every RPC with the
	// cluster node index: false fails the node
	// locally with client.ErrNodeDown — the transport resilience
	// layer's circuit breakers plug in here (see core.Options.NodeGate).
	// Must be safe for concurrent use.
	NodeGate func(node int) bool
}

// Quota caps one tenant's namespace. A zero field is unlimited.
type Quota struct {
	// MaxObjects caps how many keys the tenant may hold at once
	// (including in-flight Puts).
	MaxObjects int64
	// MaxBytes caps the tenant's total logical object bytes
	// (including in-flight Puts). Parity overhead is not counted:
	// the quota is on the namespace the tenant sees, not the raw
	// disk the code expands it to.
	MaxBytes int64
}

// TenantMetrics is a snapshot of one tenant's operation counters and
// usage gauges. Counters are cumulative over the store's lifetime.
type TenantMetrics struct {
	// Puts..Scrubs count successful operations of each kind.
	Puts, Gets, ReadAts, WriteAts, Deletes, Scrubs int64
	// BytesIn counts logical bytes accepted by Put and WriteAt;
	// BytesOut counts logical bytes served by Get and ReadAt.
	BytesIn, BytesOut int64
	// QuotaRejections counts mutations refused by the tenant's quota.
	QuotaRejections int64
	// ChunksOrphaned counts best-effort chunk removals that failed (a
	// placed node was down or erred) in Delete, a failed Put's unwind
	// or a migration: chunks left behind until the node is re-placed.
	ChunksOrphaned int64
	// Objects and UsedBytes are the namespace's current size (gauges,
	// not counters).
	Objects, UsedBytes int64
}

// tenantCounters is the hot-path half of TenantMetrics: plain atomics
// so counting never takes the fleet lock.
type tenantCounters struct {
	puts, gets, readAts, writeAts, deletes, scrubs atomic.Int64
	bytesIn, bytesOut                              atomic.Int64
	quotaRejections, chunksOrphaned                atomic.Int64
}

// objectMeta records where an object lives: its stripes and the
// placement epoch that placed them. Every object is wholly in one
// epoch at a time — reconfiguration migrates it atomically (under the
// object's lock) from its old epoch's stripes to freshly seeded
// stripes in the new epoch.
type objectMeta struct {
	size    int
	stripes []uint64
	ec      *epochCfg
}

// Fleet is the shared substrate tenant stores run on: the cluster's
// node clients, the placement epochs with their protocol instances,
// the stripe table and the global stripe-id allocator. One mutex
// guards all of it (including every tenant's directory): the layer's
// critical sections are directory bookkeeping only — quorum I/O never
// runs under the lock — so a single lock keeps cross-tenant invariants
// (unique stripe ids, one stripe table) trivially correct.
type Fleet struct {
	cfg Config

	mu         sync.Mutex
	nodes      []core.NodeClient // cluster node j's transport client; grows under mu
	epochs     map[uint64]*epochCfg
	cur        *epochCfg // the epoch new objects are placed in
	retired    uint64    // highest epoch fenced off at the nodes
	mig        *migration
	putsIn     map[uint64]int // in-flight Put/PutReader count per epoch
	locks      map[string]*objLock
	tenants    map[string]*Store
	stripes    map[uint64]placedStripe // every registered stripe
	nextStripe uint64

	// corruptFn, when set, receives the cluster node of every shard
	// the protocol observed serving corrupt bytes (the self-heal
	// monitor's ReportCorrupt). Every epoch's protocol instance routes
	// its observations here.
	corruptFn atomic.Pointer[func(node int)]
}

// Store is one tenant's keyed erasure-coded object store with quorum
// consistency: an isolated namespace (directory, quota, counters)
// over a shared Fleet.
type Store struct {
	fleet  *Fleet
	tenant string
	quota  Quota

	// Guarded by fleet.mu.
	directory      map[string]*objectMeta
	pending        map[string]bool // keys reserved by in-flight Puts
	pendingObjects int64
	pendingBytes   int64
	usedBytes      int64

	ctr tenantCounters
}

// NewFleet builds the shared substrate over the given cluster of node
// clients; nodes[j] is the transport to cluster node j. The cluster
// must have at least as many nodes as the placement strategy declares.
func NewFleet(nodes []core.NodeClient, cfg Config) (*Fleet, error) {
	if cfg.Placement == nil {
		return nil, errors.New("service: nil placement strategy")
	}
	if cfg.BlockSize < 1 {
		return nil, fmt.Errorf("service: block size %d invalid", cfg.BlockSize)
	}
	for j, n := range nodes {
		if n == nil {
			return nil, fmt.Errorf("service: node %d is nil", j)
		}
	}
	if len(nodes) < cfg.Placement.Nodes() {
		return nil, fmt.Errorf("service: cluster has %d nodes, placement expects %d",
			len(nodes), cfg.Placement.Nodes())
	}
	if cfg.Placement.Nodes() < cfg.N {
		return nil, fmt.Errorf("service: placement over %d nodes cannot hold %d shards",
			cfg.Placement.Nodes(), cfg.N)
	}
	if cfg.CodingParallelism < 0 {
		return nil, fmt.Errorf("service: coding parallelism %d invalid (need >= 0)", cfg.CodingParallelism)
	}
	// The configuration becomes the fleet's first placement epoch. An
	// epoch-stamped placement.Map carries its own epoch and roster;
	// any other strategy starts at epoch 1 over the identity roster.
	epoch := uint64(1)
	var active []int
	if m, ok := cfg.Placement.(*placement.Map); ok {
		epoch = m.Epoch()
		active = m.Active()
	} else {
		active = make([]int, cfg.Placement.Nodes())
		for i := range active {
			active[i] = i
		}
	}
	f := &Fleet{
		cfg:        cfg,
		nodes:      append([]core.NodeClient(nil), nodes...),
		putsIn:     make(map[uint64]int),
		locks:      make(map[string]*objLock),
		tenants:    make(map[string]*Store),
		stripes:    make(map[uint64]placedStripe),
		nextStripe: 1,
	}
	ec, err := f.newEpoch(epoch, ReconfigSpec{N: cfg.N, K: cfg.K, Shape: cfg.Shape, W: cfg.W, Active: active}, cfg.Placement)
	if err != nil {
		return nil, err
	}
	f.epochs = map[uint64]*epochCfg{epoch: ec}
	f.cur = ec
	if epoch > 0 {
		f.retired = epoch - 1
	}
	return f, nil
}

// DefaultTenant is the namespace New binds single-tenant callers to.
const DefaultTenant = "default"

// New builds a single-tenant store — a Fleet with one namespace named
// DefaultTenant and no quota. It is the constructor the embedding
// library API uses; multi-tenant callers (the gateway tier) use
// NewFleet plus Tenant.
func New(nodes []core.NodeClient, cfg Config) (*Store, error) {
	fleet, err := NewFleet(nodes, cfg)
	if err != nil {
		return nil, err
	}
	return fleet.Tenant(DefaultTenant, Quota{})
}

// Tenant returns the named tenant's store, creating it (with the
// given quota) on first use. On an existing tenant the quota argument
// is ignored — the creation-time quota stands.
func (f *Fleet) Tenant(name string, quota Quota) (*Store, error) {
	if name == "" {
		return nil, errors.New("service: empty tenant name")
	}
	if quota.MaxObjects < 0 || quota.MaxBytes < 0 {
		return nil, fmt.Errorf("service: tenant %q: negative quota", name)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.tenants[name]; ok {
		return s, nil
	}
	s := &Store{
		fleet:     f,
		tenant:    name,
		quota:     quota,
		directory: make(map[string]*objectMeta),
		pending:   make(map[string]bool),
	}
	f.tenants[name] = s
	return s, nil
}

// Tenants lists the fleet's tenant names in sorted order.
func (f *Fleet) Tenants() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.tenants))
	for name := range f.tenants {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// TenantMetrics snapshots every tenant's counters and usage gauges.
func (f *Fleet) TenantMetrics() map[string]TenantMetrics {
	f.mu.Lock()
	stores := make([]*Store, 0, len(f.tenants))
	for _, s := range f.tenants {
		stores = append(stores, s)
	}
	f.mu.Unlock()
	out := make(map[string]TenantMetrics, len(stores))
	for _, s := range stores {
		out[s.tenant] = s.TenantMetrics()
	}
	return out
}

// TenantMetrics snapshots this tenant's counters and usage gauges.
func (s *Store) TenantMetrics() TenantMetrics {
	m := TenantMetrics{
		Puts:            s.ctr.puts.Load(),
		Gets:            s.ctr.gets.Load(),
		ReadAts:         s.ctr.readAts.Load(),
		WriteAts:        s.ctr.writeAts.Load(),
		Deletes:         s.ctr.deletes.Load(),
		Scrubs:          s.ctr.scrubs.Load(),
		BytesIn:         s.ctr.bytesIn.Load(),
		BytesOut:        s.ctr.bytesOut.Load(),
		QuotaRejections: s.ctr.quotaRejections.Load(),
		ChunksOrphaned:  s.ctr.chunksOrphaned.Load(),
	}
	s.fleet.mu.Lock()
	m.Objects = int64(len(s.directory))
	m.UsedBytes = s.usedBytes
	s.fleet.mu.Unlock()
	return m
}

// Tenant returns the namespace name this store serves.
func (s *Store) Tenant() string { return s.tenant }

// Fleet returns the shared substrate this store runs on.
func (s *Store) Fleet() *Fleet { return s.fleet }

// capacity returns the payload bytes one stripe holds in this epoch.
func (ec *epochCfg) capacity(blockSize int) int { return ec.k * blockSize }

// tailAlign is the granularity of a right-sized stripe's block size.
const tailAlign = 64

// blockSize returns the block size of a stripe holding r bytes in this
// epoch: full (Config.BlockSize) for a full stripe, otherwise the
// smallest multiple of tailAlign that holds ⌈r/k⌉ bytes, never above
// full — an empty object's one stripe gets tailAlign-byte blocks.
func (ec *epochCfg) blockSize(full, r int) int {
	per := max(1, (r+ec.k-1)/ec.k)
	return min(full, (per+tailAlign-1)/tailAlign*tailAlign)
}

// SetCorruptionHandler installs the fleet-wide corruption observer:
// fn receives the cluster node index of every shard any protocol
// instance caught serving bytes its peers' cross-checksum records
// disavow. The self-heal layer binds it to the health monitor's
// ReportCorrupt. A nil fn disables delivery. Safe to call at any
// time, concurrently with traffic.
func (f *Fleet) SetCorruptionHandler(fn func(node int)) {
	if fn == nil {
		f.corruptFn.Store(nil)
		return
	}
	f.corruptFn.Store(&fn)
}

// reportCorrupt is every epoch's corruption handler: it forwards the
// observation to the fleet-wide observer, if one is installed.
func (f *Fleet) reportCorrupt(node int) {
	if fn := f.corruptFn.Load(); fn != nil {
		(*fn)(node)
	}
}

// objLock is one entry of the per-object reconfiguration lock table.
type objLock struct {
	sync.RWMutex
	refs int // holders and waiters; guarded by Fleet.mu
}

// lockObject takes the reconfiguration lock of one tenant key and
// returns its release. Writers (WriteAt) hold it shared, Delete and the
// migration's object move hold it exclusive — so a migration never
// copies an object while a write is landing on its old stripes, and no
// acked write can be lost at cutover. Entries are reference-counted: a
// straggling holder and a newcomer always share one lock (or two
// migrations could race on different locks for one key), and the table
// is empty whenever no operation is in flight.
func (f *Fleet) lockObject(tenant, key string, exclusive bool) (unlock func()) {
	id := tenant + "\x00" + key
	f.mu.Lock()
	l := f.locks[id]
	if l == nil {
		l = &objLock{}
		f.locks[id] = l
	}
	l.refs++
	f.mu.Unlock()
	if exclusive {
		l.Lock()
	} else {
		l.RLock()
	}
	return func() {
		if exclusive {
			l.Unlock()
		} else {
			l.RUnlock()
		}
		f.mu.Lock()
		if l.refs--; l.refs == 0 {
			delete(f.locks, id)
		}
		f.mu.Unlock()
	}
}

// placedStripe is one entry of the fleet's stripe table: the stripe's
// handle and the epoch — hence the protocol instance — it was placed in.
type placedStripe struct {
	core.Stripe
	ec *epochCfg
}

// placeStripe allocates the next stripe id and places a stripe of the
// given block size in epoch ec. The stripe stays unregistered until
// registerLocked.
func (f *Fleet) placeStripe(ec *epochCfg, blockSize int) (placedStripe, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	id := f.nextStripe
	f.nextStripe++
	nodes, err := ec.place.Place(id, ec.n)
	if err != nil {
		return placedStripe{}, err
	}
	return placedStripe{core.Stripe{ID: id, Nodes: nodes, BlockSize: blockSize}, ec}, nil
}

// registerLocked enters seeded stripes into the stripe table and
// returns their ids in order — an object's stripe list. Caller holds
// f.mu.
func (f *Fleet) registerLocked(placed []placedStripe) []uint64 {
	ids := make([]uint64, 0, len(placed))
	for _, p := range placed {
		f.stripes[p.ID] = p
		ids = append(ids, p.ID)
	}
	return ids
}

// unregisterLocked takes the stripes out of the stripe table and
// returns them as dropStripes wants them. Caller holds f.mu.
func (f *Fleet) unregisterLocked(stripes []uint64) []placedStripe {
	out := make([]placedStripe, 0, len(stripes))
	for _, id := range stripes {
		out = append(out, f.stripes[id])
		delete(f.stripes, id)
	}
	return out
}

// stripe looks a registered stripe up.
func (f *Fleet) stripe(id uint64) (placedStripe, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	p, ok := f.stripes[id]
	return p, ok
}

// SeedStripe seeds k equally sized data blocks as the caller-named
// stripe id in the current epoch — shard j on roster node j — and
// registers it beside the tenants' stripes, so node repair, scrub and
// self-heal cover it. The allocator skips past id: it never hands a
// caller's id to a tenant Put. Seeding an id again replaces the stripe.
func (f *Fleet) SeedStripe(ctx context.Context, id uint64, blocks [][]byte) error {
	f.mu.Lock()
	ec := f.cur
	f.nextStripe = max(f.nextStripe, id+1)
	f.mu.Unlock()
	st := core.Stripe{ID: id, Nodes: slices.Clip(ec.active[:ec.n])}
	if len(blocks) > 0 {
		st.BlockSize = len(blocks[0])
	}
	if err := ec.sys.SeedStripe(ctx, st, blocks); err != nil {
		return err
	}
	f.mu.Lock()
	f.registerLocked([]placedStripe{{st, ec}})
	f.mu.Unlock()
	return nil
}

// Stripe returns a registered stripe's handle and the protocol
// instance serving it, or a core.ErrUnknownStripe wrap.
func (f *Fleet) Stripe(id uint64) (core.Stripe, *core.System, error) {
	p, ok := f.stripe(id)
	if !ok {
		return core.Stripe{}, nil, fmt.Errorf("%w: %d", core.ErrUnknownStripe, id)
	}
	return p.Stripe, p.ec.sys, nil
}

// dropStripes removes every chunk of the given stripes from its placed
// node and returns how many removals failed. Best-effort on a detached
// context: the caller's may be dead, and since stripe ids are never
// reused a chunk skipped here stays orphaned until its node is repaired
// or re-placed. The removals fan out stripe-major (consecutive tasks
// land on distinct nodes) under the sweep bound, so the call costs the
// slowest node of each round, not the sum over shards; the order in
// which shards disappear is unspecified. Every removal has settled when
// it returns.
func (f *Fleet) dropStripes(set []placedStripe) (orphaned int) {
	type removal struct {
		node core.NodeClient
		id   client.ChunkID
	}
	var tasks []removal
	f.mu.Lock()
	for _, st := range set {
		for shard, node := range st.Nodes {
			tasks = append(tasks, removal{f.nodes[node], client.ChunkID{Stripe: st.ID, Shard: shard}})
		}
	}
	f.mu.Unlock()
	core.Fanout(context.Background(), core.BulkLimit(f.cfg.Concurrency), len(tasks),
		func(ctx context.Context, i int) (struct{}, error) {
			return struct{}{}, tasks[i].node.DeleteChunk(ctx, tasks[i].id)
		}, func(_ int, _ struct{}, err error) bool {
			if err != nil {
				orphaned++
			}
			return true
		})
	return orphaned
}

// checkQuota enforces the tenant's limits against the namespace's
// committed plus in-flight footprint. Caller holds fleet.mu.
func (s *Store) checkQuota(addBytes int) error {
	if s.quota.MaxObjects > 0 && int64(len(s.directory))+s.pendingObjects+1 > s.quota.MaxObjects {
		s.ctr.quotaRejections.Add(1)
		return fmt.Errorf("%w: tenant %q holds %d of %d objects",
			client.ErrQuotaExceeded, s.tenant, int64(len(s.directory))+s.pendingObjects, s.quota.MaxObjects)
	}
	if s.quota.MaxBytes > 0 && s.usedBytes+s.pendingBytes+int64(addBytes) > s.quota.MaxBytes {
		s.ctr.quotaRejections.Add(1)
		return fmt.Errorf("%w: tenant %q uses %d of %d bytes, put of %d refused",
			client.ErrQuotaExceeded, s.tenant, s.usedBytes+s.pendingBytes, s.quota.MaxBytes, addBytes)
	}
	return nil
}

// Put stores data under key: PutReader over a buffer the caller already
// holds, with the same contract (the key must not exist, the quota is
// checked before any node is touched, a failure leaves nothing behind).
func (s *Store) Put(ctx context.Context, key string, data []byte) error {
	return s.PutReader(ctx, key, bytes.NewReader(data), len(data))
}

// meta returns a copy of the object's metadata.
func (s *Store) meta(key string) (objectMeta, error) {
	s.fleet.mu.Lock()
	defer s.fleet.mu.Unlock()
	m, ok := s.directory[key]
	if !ok {
		return objectMeta{}, fmt.Errorf("%w: %q", ErrUnknownKey, key)
	}
	return objectMeta{size: m.size, stripes: append([]uint64(nil), m.stripes...), ec: m.ec}, nil
}

// Get reads the whole object through quorum reads.
func (s *Store) Get(ctx context.Context, key string) ([]byte, error) {
	return s.GetAppend(ctx, key, nil)
}

// GetAppend reads the whole object through quorum reads, appending its
// bytes to dst (which may be nil) and returning the extended slice —
// the destination-buffer variant the gateway's pooled serve path uses.
// dst is grown once, to its final length, before any byte is read: with
// enough capacity in dst, the service layer adds no allocation of its
// own, and without it the one allocation is exactly the object's size.
func (s *Store) GetAppend(ctx context.Context, key string, dst []byte) ([]byte, error) {
	m, err := s.meta(key)
	if err != nil {
		return dst, err
	}
	out := slices.Grow(dst, m.size)
	o := s.objectReader(ctx, key, m)
	defer o.close()
	for {
		data, err := o.block()
		if err == io.EOF {
			break
		}
		if err != nil {
			return dst, err
		}
		out = append(out, data...)
	}
	s.ctr.gets.Add(1)
	s.ctr.bytesOut.Add(int64(m.size))
	return out, nil
}

// Size returns the object's byte size.
func (s *Store) Size(key string) (int, error) {
	s.fleet.mu.Lock()
	defer s.fleet.mu.Unlock()
	m, ok := s.directory[key]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownKey, key)
	}
	return m.size, nil
}

// Keys lists stored keys in sorted order.
func (s *Store) Keys() []string {
	s.fleet.mu.Lock()
	defer s.fleet.mu.Unlock()
	out := make([]string, 0, len(s.directory))
	for k := range s.directory {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// locate maps a byte offset of an object to its stripe, the data block
// holding it and the offset within that block. Every stripe but the
// last is full — k blocks of Config.BlockSize — so the stripe is
// offset / (k·BlockSize); inside it the stripe's own BlockSize, smaller
// on a right-sized last stripe, finds the block. The byte mapping is
// epoch-invariant; how bytes group into stripes (k, and with it the
// last stripe's block size) follows the object's epoch.
func (s *Store) locate(m objectMeta, offset int) (p placedStripe, block, within int, err error) {
	span := m.ec.capacity(s.fleet.cfg.BlockSize)
	idx := offset / span
	if idx >= len(m.stripes) {
		return placedStripe{}, 0, 0, fmt.Errorf("%w: byte %d beyond object", ErrBadRange, offset)
	}
	p, ok := s.fleet.stripe(m.stripes[idx])
	if !ok {
		// The object was deleted — or migrated to another epoch —
		// concurrently; the caller refreshes its metadata to tell which.
		return placedStripe{}, 0, 0, fmt.Errorf("%w: stripe %d", ErrUnknownKey, m.stripes[idx])
	}
	in := offset - idx*span
	return p, in / p.BlockSize, in % p.BlockSize, nil
}

// readStripeAt reads the object's bytes from offset on, at most length
// of them and no further than the end of the stripe holding offset,
// through one stripe read of the blocks they span. It returns them
// block by block, trimmed to the range. It retries with refreshed
// metadata when a concurrent migration moved the object between epochs
// mid-read (the old stripes vanish; the same bytes are re-read from the
// new ones — only the stripe bounds and the last stripe's block size
// follow the epoch's k). When the metadata did not change, the failure
// is real and surfaces after a single attempt, so read error latency
// is untouched outside reconfigurations. On a successful retry *m is
// left refreshed for the caller's next stripes.
func (s *Store) readStripeAt(ctx context.Context, m *objectMeta, key string, offset, length int) ([][]byte, error) {
	for attempt := 0; ; attempt++ {
		p, block, within, err := s.locate(*m, offset)
		if err == nil {
			bs := p.BlockSize
			take := min(length, (p.ec.k-block)*bs-within)
			var blocks [][]byte
			blocks, _, err = p.ec.sys.ReadStripe(ctx, p.Stripe, block, (within+take+bs-1)/bs)
			if err == nil {
				blocks[0] = blocks[0][within:]
				last := len(blocks) - 1
				excess := len(blocks)*bs - within - take
				blocks[last] = blocks[last][:len(blocks[last])-excess]
				return blocks, nil
			}
			err = fmt.Errorf("stripe %d: %w", p.ID, err)
		}
		if attempt >= 2 {
			return nil, err
		}
		fresh, merr := s.meta(key)
		if merr != nil {
			return nil, merr
		}
		if fresh.ec == m.ec {
			// Placement unchanged: the error is not a cutover artifact.
			return nil, err
		}
		*m = fresh
	}
}

// ReadAt reads length bytes at the given offset through quorum reads
// of only the affected blocks, one stripe read per stripe the range
// touches.
func (s *Store) ReadAt(ctx context.Context, key string, offset, length int) ([]byte, error) {
	out, err := s.ReadAtAppend(ctx, key, offset, length, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ReadAtAppend reads length bytes at the given offset, appending them
// to dst (which may be nil) and returning the extended slice — the
// destination-buffer variant of ReadAt, growing dst once like
// GetAppend.
func (s *Store) ReadAtAppend(ctx context.Context, key string, offset, length int, dst []byte) ([]byte, error) {
	m, err := s.meta(key)
	if err != nil {
		return dst, err
	}
	if offset < 0 || length < 0 || offset+length > m.size {
		return dst, fmt.Errorf("%w: [%d,%d) of %d", ErrBadRange, offset, offset+length, m.size)
	}
	out := slices.Grow(dst, length)
	served := length
	for length > 0 {
		blocks, err := s.readStripeAt(ctx, &m, key, offset, length)
		if err != nil {
			return dst, err
		}
		for _, data := range blocks {
			out = append(out, data...)
			offset += len(data)
			length -= len(data)
		}
	}
	s.ctr.readAts.Add(1)
	s.ctr.bytesOut.Add(int64(served))
	return out, nil
}

// WriteAt overwrites bytes [offset, offset+len(p)) in place through
// quorum writes: each affected block gets one Algorithm 1 write that
// patches the block's bytes in the range under the block's writer
// lock, shipping only parity deltas. Writes cannot extend the object.
// A context abort between blocks leaves earlier blocks committed and
// later ones untouched (each block write is atomic; the multi-block
// span is not). Patches are byte-granular: WriteAt calls on disjoint
// byte ranges never lose each other's bytes, even within one block;
// calls overlapping on the same bytes apply in some order, last writer
// wins per block, and need coordination above this layer.
func (s *Store) WriteAt(ctx context.Context, key string, offset int, p []byte) error {
	f := s.fleet
	// Hold the object's reconfiguration lock shared for the whole
	// multi-block span: a migration (which takes it exclusive) can
	// never copy the object while this write is landing, so no acked
	// byte is left behind on retired stripes. Concurrent WriteAt calls
	// all take it shared — their mutual semantics are unchanged.
	defer f.lockObject(s.tenant, key, false)()
	m, err := s.meta(key)
	if err != nil {
		return err
	}
	if offset < 0 || offset+len(p) > m.size {
		return fmt.Errorf("%w: [%d,%d) of %d", ErrBadRange, offset, offset+len(p), m.size)
	}
	written := len(p)
	for len(p) > 0 {
		st, block, within, err := s.locate(m, offset)
		if err != nil {
			return err
		}
		take := min(st.BlockSize-within, len(p))
		if err := st.ec.sys.WriteBlockAt(ctx, st.Stripe, block, within, p[:take]); err != nil {
			return fmt.Errorf("stripe %d block %d: %w", st.ID, block, err)
		}
		offset += take
		p = p[take:]
	}
	s.ctr.writeAts.Add(1)
	s.ctr.bytesIn.Add(int64(written))
	return nil
}

// Delete removes the object from the directory and best-effort deletes
// its chunks from the placed nodes (down nodes keep orphan chunks; a
// later repair or re-placement overwrites them). The context gates
// entry only: once the key is unregistered the chunk removal runs on
// a detached context, because stripe ids are never reused and chunks
// skipped on a dead context would be orphaned forever.
func (s *Store) Delete(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	f := s.fleet
	// Exclusive object lock: a migration mid-copy of this object holds
	// the same lock, so Delete never races the cutover swap.
	defer f.lockObject(s.tenant, key, true)()
	f.mu.Lock()
	m, ok := s.directory[key]
	if !ok {
		f.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownKey, key)
	}
	delete(s.directory, key)
	s.usedBytes -= int64(m.size)
	old := f.unregisterLocked(m.stripes)
	f.mu.Unlock()
	s.ctr.chunksOrphaned.Add(int64(f.dropStripes(old)))
	s.ctr.deletes.Add(1)
	return nil
}

// RepairClusterNode rebuilds every stripe shard placed on the given
// cluster node — across all tenants and epochs — through core's
// bounded repair sweep. It returns how many chunks were rebuilt and
// the error of the lowest-numbered failing stripe.
func (f *Fleet) RepairClusterNode(ctx context.Context, node int) (int, error) {
	on := f.stripesOnNode(node)
	stripes := make([]core.Stripe, len(on))
	for i, p := range on {
		stripes[i] = p.Stripe
	}
	return core.RepairSweep(ctx, core.BulkLimit(f.cfg.Concurrency), node, stripes,
		func(i int) *core.System { return on[i].ec.sys })
}

// Scrub audits every stripe of the object read-only, reporting the
// freshest consistent version vector, stale/ahead/unreachable shards
// and byte-level parity mismatches per stripe. Pair with
// RepairClusterNode (or per-stripe repair) when it reports
// degradation.
func (s *Store) Scrub(ctx context.Context, key string) ([]core.ScrubReport, error) {
	f := s.fleet
	for attempt := 0; ; attempt++ {
		m, err := s.meta(key)
		if err != nil {
			return nil, err
		}
		reports := make([]core.ScrubReport, 0, len(m.stripes))
		stale := false
		for _, stripe := range m.stripes {
			p, ok := f.stripe(stripe)
			if !ok {
				// The object was deleted or migrated concurrently; the
				// meta refetch above distinguishes the two on retry.
				stale = true
				break
			}
			rep, err := p.ec.sys.ScrubStripe(ctx, p.Stripe)
			if err != nil {
				return reports, fmt.Errorf("stripe %d: %w", stripe, err)
			}
			if _, ok := f.stripe(stripe); !ok {
				stale = true // dropped while it was being audited
				break
			}
			reports = append(reports, rep)
		}
		if !stale {
			s.ctr.scrubs.Add(1)
			return reports, nil
		}
		if attempt >= 2 {
			return nil, fmt.Errorf("%w: %q", ErrUnknownKey, key)
		}
	}
}

// StripesOf reports the stripe ids backing an object (diagnostics).
func (s *Store) StripesOf(key string) ([]uint64, error) {
	m, err := s.meta(key)
	if err != nil {
		return nil, err
	}
	return m.stripes, nil
}

// Metrics sums the protocol counters of every epoch's protocol
// instance into one fleet-level snapshot. Epochs are never dropped, so
// every counter is monotone.
func (f *Fleet) Metrics() core.MetricsSnapshot {
	f.mu.Lock()
	systems := make([]*core.System, 0, len(f.epochs))
	for _, ec := range f.epochs {
		systems = append(systems, ec.sys)
	}
	f.mu.Unlock()
	var total core.MetricsSnapshot
	for _, sys := range systems {
		total.Add(sys.Metrics())
	}
	return total
}

// stripesOnNode lists every registered stripe placing a shard on the
// given cluster node — the one traversal both the node repair and the
// self-heal planner build on.
func (f *Fleet) stripesOnNode(node int) []placedStripe {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []placedStripe
	for _, p := range f.stripes {
		if slices.Contains(p.Nodes, node) {
			out = append(out, p)
		}
	}
	return out
}

// PlanNodeRepairs implements repairsched.Target: one repair task per
// chunk placed on the given cluster node, prioritised by how many of
// each stripe's placements the down predicate reports lost (a stripe
// missing two nodes is rebuilt before a stripe missing one).
func (f *Fleet) PlanNodeRepairs(node int, down func(int) bool) []repairsched.Task {
	var tasks []repairsched.Task
	for _, p := range f.stripesOnNode(node) {
		nodes := p.Nodes
		lost := repairsched.LostCount(len(nodes), func(shard int) int { return nodes[shard] }, down)
		for shard, placed := range nodes {
			if placed == node {
				tasks = append(tasks, repairsched.Task{Stripe: p.ID, Shard: shard, Node: node, Priority: lost})
			}
		}
	}
	sort.Slice(tasks, func(i, j int) bool {
		if tasks[i].Priority != tasks[j].Priority {
			return tasks[i].Priority > tasks[j].Priority
		}
		if tasks[i].Stripe != tasks[j].Stripe {
			return tasks[i].Stripe < tasks[j].Stripe
		}
		return tasks[i].Shard < tasks[j].Shard
	})
	return tasks
}

// Repair implements repairsched.Target: rebuild one chunk through the
// version-guarded repair path. A stripe deleted since planning is a
// no-op success.
func (f *Fleet) Repair(ctx context.Context, t repairsched.Task) error {
	p, ok := f.stripe(t.Stripe)
	if !ok {
		return nil
	}
	return p.ec.sys.RepairShard(ctx, p.Stripe, t.Shard)
}

// Stripes implements repairsched.Target: every live stripe id across
// all tenants, in ascending order.
func (f *Fleet) Stripes() []uint64 {
	f.mu.Lock()
	out := make([]uint64, 0, len(f.stripes))
	for id := range f.stripes {
		out = append(out, id)
	}
	f.mu.Unlock()
	slices.Sort(out)
	return out
}

// ScrubStripe implements repairsched.Target: audit one stripe and
// return repair tasks for its repairable degradation — stale shards,
// plus shards the scrub could not reach on nodes the down predicate
// reports up (a wiped or corrupted disk behind a live process). Ahead
// shards are deliberately left alone: the guarded repair would refuse
// to regress them, and failed-write residue has no public discard path
// today (DESIGN.md §2.2).
func (f *Fleet) ScrubStripe(ctx context.Context, stripe uint64, down func(int) bool) ([]repairsched.Task, error) {
	p, ok := f.stripe(stripe)
	if !ok {
		return nil, nil
	}
	rep, err := p.ec.sys.ScrubStripe(ctx, p.Stripe)
	if err != nil {
		return nil, err
	}
	if _, ok := f.stripe(stripe); !ok {
		return nil, nil // deleted while it was being audited
	}
	nodes := p.Nodes
	return repairsched.DegradationTasks(stripe, len(nodes), rep.StaleShards, rep.UnreachableShards,
		rep.CorruptShards, func(shard int) int { return nodes[shard] }, down), nil
}
