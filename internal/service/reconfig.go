package service

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	"trapquorum/client"
	"trapquorum/internal/clock"
	"trapquorum/internal/core"
	"trapquorum/internal/erasure"
	"trapquorum/internal/trapezoid"
	"trapquorum/placement"
)

// Online reconfiguration: the fleet's placement is versioned into
// epochs, each an immutable (n, k, trapezoid, placement, roster)
// tuple. Reconfigure installs the next epoch as the target of new
// Puts, then migrates every existing object — streamed out of its old
// epoch's stripes, re-encoded and seeded onto the new placement, cut
// over atomically under the object's lock — and finally fences the
// previous epochs at the nodes (client.EpochSetter), so a stale
// coordinator still stamping retired epochs is refused with
// client.ErrEpochStale. Old and new quorums overlap for the whole
// drain: reads follow each object's own epoch and retry across the
// cutover, writes hold the object lock shared, so no acked write is
// ever lost and no caller sees an error it would not have seen on a
// static fleet.

// ErrMigrationActive rejects a reconfiguration towards a different
// target while another migration is still draining.
var ErrMigrationActive = errors.New("service: another reconfiguration is in progress")

// epochCfg is one placement epoch: its resolved spec — the stripe
// geometry, the roster, and the epoch-stamped placement new stripes of
// the epoch are created with — and the one protocol instance serving
// every stripe placed in it.
// Immutable once built — a reconfiguration adds the next epoch rather
// than mutating the current one, so both sides of a migration coexist.
type epochCfg struct {
	id uint64
	ReconfigSpec
	sys *core.System
}

// newEpoch builds epoch id of the spec's geometry and roster, placed by
// spec.Placement, together with its protocol instance: the (n,k) code,
// the trapezoid over n−k+1 positions (core checks the count) and one
// core.System over every node client the fleet holds, stamping the
// epoch on each RPC. It is the catalog's build; caller holds f.mu or
// owns f exclusively.
func (f *Fleet) newEpoch(id uint64, spec ReconfigSpec) (*epochCfg, error) {
	var codeOpts []erasure.Option
	if f.cfg.CodingParallelism > 1 {
		codeOpts = append(codeOpts, erasure.WithParallelism(f.cfg.CodingParallelism))
	}
	code, err := erasure.New(spec.N, spec.K, codeOpts...)
	if err != nil {
		return nil, err
	}
	tcfg, err := trapezoid.NewConfig(spec.Shape, spec.W)
	if err != nil {
		return nil, err
	}
	sys, err := core.NewSystem(code, tcfg, f.nodes, core.Options{
		Concurrency: f.cfg.Concurrency,
		Hedge:       f.cfg.Hedge,
		NodeGate:    f.cfg.NodeGate,
		Epoch:       id,
	})
	if err != nil {
		return nil, err
	}
	sys.SetCorruptionHandler(f.reportCorrupt)
	spec.Active = slices.Clone(spec.Active)
	return &epochCfg{id: id, ReconfigSpec: spec, sys: sys}, nil
}

// ReconfigSpec describes a reconfiguration target. Zero geometry
// fields inherit the current epoch's value, so a pure roster change
// needs only Active and a pure recode needs only N/K/Shape/W.
type ReconfigSpec struct {
	// N, K are the target erasure-code parameters (0 = keep current).
	N, K int
	// Shape and W parameterise the target trapezoid (zero = keep
	// current). Shape.NbNodes must equal N-K+1.
	Shape trapezoid.Shape
	W     int
	// Active is the cluster node roster of the target epoch, as ids
	// into the fleet's client table (grow it first with
	// AddNodeClients). nil keeps the current roster; an explicit
	// roster may drop ids (shrink) or include fresh ones (grow).
	Active []int
	// Placement optionally overrides the inner placement strategy,
	// spanning positions 0..len(Active)-1 (it is wrapped in an
	// epoch-stamped placement.Map). nil places round-robin over the
	// roster.
	Placement placement.Strategy
}

// migration is the in-flight state of one reconfiguration drain.
// Guarded by fleet.mu.
type migration struct {
	target *epochCfg
	from   uint64
	queue  []objKey
	queued map[objKey]bool
	done   int
	moved  int64
	fails  int
}

// newMigration starts a drain into target with the given objects
// queued.
func newMigration(target *epochCfg, from uint64, keys []objKey) *migration {
	m := &migration{target: target, from: from, queued: make(map[objKey]bool)}
	m.enqueueLocked(keys...)
	return m
}

// enqueueLocked queues each object unless it already is. Caller holds
// fleet.mu.
func (m *migration) enqueueLocked(keys ...objKey) {
	for _, mk := range keys {
		if !m.queued[mk] {
			m.queued[mk] = true
			m.queue = append(m.queue, mk)
		}
	}
}

// MigrationStatus is the externally visible reconfiguration state:
// the fleet's current and retired epochs always, plus drain progress
// while a migration is active.
type MigrationStatus struct {
	// Active reports whether a migration is draining.
	Active bool
	// Epoch is the placement epoch new objects are placed in; Retired
	// is the highest epoch fenced off at the nodes. Epoch == Retired+1
	// means the fleet is fully converged.
	Epoch, Retired uint64
	// From and To are the source and target epochs of the active
	// migration (zero when idle).
	From, To uint64
	// TargetN, TargetK are the geometry being migrated to.
	TargetN, TargetK int
	// DoneObjects and PendingObjects count the drain's progress;
	// TotalObjects is their sum.
	DoneObjects, PendingObjects, TotalObjects int
	// Failures counts object moves that errored and were re-queued.
	Failures int
	// MovedBytes is the logical object bytes re-placed so far.
	MovedBytes int64
}

// Migration snapshots the reconfiguration state.
func (f *Fleet) Migration() MigrationStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := MigrationStatus{Epoch: f.cat.cur.id, Retired: f.cat.retired}
	if m := f.mig; m != nil {
		st.Active, st.From, st.To, st.TargetN, st.TargetK = true, m.from, m.target.id, m.target.N, m.target.K
		st.DoneObjects, st.PendingObjects, st.TotalObjects = m.done, len(m.queue), m.done+len(m.queue)
		st.Failures, st.MovedBytes = m.fails, m.moved
	}
	return st
}

// Epoch returns the placement epoch new objects are placed in.
func (f *Fleet) Epoch() uint64 { return f.current().id }

// ActiveNodes returns the current epoch's cluster node roster.
func (f *Fleet) ActiveNodes() []int { return slices.Clone(f.current().Active) }

// CodeParams returns the current epoch's (n, k).
func (f *Fleet) CodeParams() (n, k int) {
	ec := f.current()
	return ec.N, ec.K
}

// current returns the epoch new objects are placed in. Epochs are
// immutable, so its fields need no lock.
func (f *Fleet) current() *epochCfg {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cat.cur
}

// NodeCount returns how many node clients the fleet holds (the id
// space, not the active roster — removed nodes keep their ids).
func (f *Fleet) NodeCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.nodes)
}

// AddNodeClients appends fresh node clients to the fleet's table,
// returning the cluster id of the first one. The new nodes serve no
// stripes until a reconfiguration includes them in a roster.
func (f *Fleet) AddNodeClients(clients ...core.NodeClient) (int, error) {
	for i, c := range clients {
		if c == nil {
			return 0, fmt.Errorf("service: AddNodeClients: client %d is nil", i)
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	first := len(f.nodes)
	f.nodes = append(f.nodes, clients...)
	return first, nil
}

// specTargetLocked resolves a spec against the current epoch: zero
// fields inherit. Caller holds f.mu.
func (f *Fleet) specTargetLocked(spec ReconfigSpec) (ReconfigSpec, error) {
	cur := f.cat.cur
	spec.N, spec.K, spec.W = cmp.Or(spec.N, cur.N), cmp.Or(spec.K, cur.K), cmp.Or(spec.W, cur.W)
	spec.Shape = cmp.Or(spec.Shape, cur.Shape)
	if spec.Active == nil {
		spec.Active = cur.Active
	}
	spec.Active = slices.Clone(spec.Active)
	for _, id := range spec.Active {
		if id < 0 || id >= len(f.nodes) {
			return spec, fmt.Errorf("service: roster node %d outside fleet of %d clients", id, len(f.nodes))
		}
	}
	if len(spec.Active) < spec.N {
		return spec, fmt.Errorf("service: roster of %d nodes cannot hold %d shards", len(spec.Active), spec.N)
	}
	return spec, nil
}

// StartReconfigure installs the target epoch and queues the migration,
// without driving it: new objects land in the target immediately;
// existing ones are moved by MigrationStep calls (DriveMigration, or
// the self-heal orchestrator's background pump). The queue comes from
// a scan of the catalog for objects outside the target. Calling it
// again with the same target is the resume path — it rebuilds the
// queue from a fresh scan, so a coordinator killed mid-drain redoes
// exactly the remaining work. A different target while a migration
// drains is refused with ErrMigrationActive. When the fleet already
// converged on the target it is a no-op.
func (f *Fleet) StartReconfigure(ctx context.Context, spec ReconfigSpec) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	target, retired, err := f.installTarget(spec)
	if target != nil {
		// Announce the new epoch to the fleet (best-effort: the
		// watermarks are monotone and re-broadcast at completion; a node
		// that misses this one only lacks the installed marker, not
		// safety).
		f.broadcastEpoch(ctx, target.id, retired)
	}
	return err
}

// installTarget is StartReconfigure under the fleet lock. It returns
// the epoch it installed, if any, and the retired watermark.
func (f *Fleet) installTarget(spec ReconfigSpec) (*epochCfg, uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	cur := f.cat.cur
	spec, err := f.specTargetLocked(spec)
	if err != nil {
		return nil, 0, err
	}
	same := cur.N == spec.N && cur.K == spec.K && cur.Shape == spec.Shape && cur.W == spec.W &&
		slices.Equal(cur.Active, spec.Active)
	if f.mig != nil {
		// cur is always the active migration's target.
		if !same {
			return nil, 0, ErrMigrationActive
		}
		f.mig.enqueueLocked(f.cat.outside(cur)...)
		return nil, 0, nil
	}
	if same {
		// Unless the fleet fully converged on cur, converging was
		// interrupted (abort, or a crashed coordinator): resume draining
		// into it.
		if stale := f.cat.outside(cur); f.cat.retired+1 < cur.id || len(stale) > 0 {
			f.mig = newMigration(cur, f.cat.retired, stale)
		}
		return nil, 0, nil
	}

	// Build the target epoch. Validation happens before any state
	// changes; the constructors reject bad geometry.
	inner := spec.Placement
	if inner == nil {
		if inner, err = placement.NewRoundRobin(len(spec.Active)); err != nil {
			return nil, 0, err
		}
	}
	if spec.Placement, err = placement.NewMap(cur.id+1, inner, spec.Active); err != nil {
		return nil, 0, err
	}
	if _, err := f.cat.apply(installEpoch{id: cur.id + 1, spec: spec}); err != nil {
		return nil, 0, err
	}
	f.mig = newMigration(f.cat.cur, cur.id, f.cat.outside(f.cat.cur))
	return f.cat.cur, f.cat.retired, nil
}

// AbortReconfigure stops an active migration, leaving the fleet in the
// mixed-epoch state it reached: every object keeps serving from
// whichever epoch it is in, nothing is fenced, and a later
// StartReconfigure towards the same target resumes the drain.
func (f *Fleet) AbortReconfigure() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.mig = nil
}

// MigrationPending reports whether a migration has work left.
func (f *Fleet) MigrationPending() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.mig != nil
}

// MigrationStep performs one unit of migration work: moves one object
// into the target epoch, or — once the queue is drained and no Put is
// still seeding into a previous epoch — fences the retired epochs at
// the nodes and completes. It returns done=true when no migration is
// active (or it just completed). A failed object move is re-queued and
// returned as the step's error; the caller retries. Safe for
// concurrent use; steps are serialized per object by the object lock.
func (f *Fleet) MigrationStep(ctx context.Context) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	f.mu.Lock()
	mig := f.mig
	if mig == nil {
		f.mu.Unlock()
		return true, nil
	}
	target := mig.target
	if len(mig.queue) == 0 {
		// Queue drained. Puts still seeding into a previous epoch keep
		// the fence back — their objects will be queued at
		// registration and drained by a later step.
		for id, n := range f.putsIn {
			if id != target.id && n > 0 {
				f.mu.Unlock()
				return false, nil
			}
		}
		f.mu.Unlock()
		// Fence every epoch before the target: a stale coordinator
		// still stamping them is refused by the nodes from here on.
		if err := f.broadcastEpoch(ctx, target.id, target.id-1); err != nil {
			return false, err
		}
		f.mu.Lock()
		if f.mig == mig {
			f.cat.apply(retireEpochs{through: target.id - 1})
			f.mig = nil
		}
		f.mu.Unlock()
		return true, nil
	}
	mk := mig.queue[0]
	mig.queue = mig.queue[1:]
	delete(mig.queued, mk)
	st := f.tenants[mk.tenant]
	f.mu.Unlock()

	moved, err := st.migrateObject(ctx, mk.key, target)
	f.mu.Lock()
	if f.mig == mig {
		if err != nil {
			mig.fails++
			mig.enqueueLocked(mk)
		} else {
			mig.done++
			mig.moved += moved
		}
	}
	f.mu.Unlock()
	if err != nil {
		return false, fmt.Errorf("migrating %s/%q: %w", mk.tenant, mk.key, err)
	}
	return false, nil
}

// DriveMigration runs MigrationStep to completion: each failed object
// move is retried after a short pause, until the migration finishes or
// the context dies. Bound the wait with the context when nodes may be
// unrecoverable.
func (f *Fleet) DriveMigration(ctx context.Context) error {
	for {
		done, err := f.MigrationStep(ctx)
		if done {
			return nil
		}
		// Yield between objects so the drain paces itself and the
		// queue-drained/waiting-on-puts probe does not spin.
		pause := time.Millisecond
		if err != nil {
			if ctx.Err() != nil {
				return err
			}
			pause = 10 * time.Millisecond
		}
		if err := clock.Sleep(ctx, clock.Real{}, pause); err != nil {
			return err
		}
	}
}

// Reconfigure installs the target epoch and drives the migration to
// completion: when it returns nil, every object lives in the target
// epoch, the previous epochs are fenced at the nodes, and the fleet is
// fully converged. The resume path after an interrupted run is simply
// calling it again with the same spec.
func (f *Fleet) Reconfigure(ctx context.Context, spec ReconfigSpec) error {
	if err := f.StartReconfigure(ctx, spec); err != nil {
		return err
	}
	return f.DriveMigration(ctx)
}

// epochBlob is the opaque state broadcast alongside the watermarks —
// a JSON description of the installed epoch, for operators inspecting
// a node's persisted epoch state.
type epochBlob struct {
	Epoch   uint64 `json:"epoch"`
	Retired uint64 `json:"retired"`
	N       int    `json:"n"`
	K       int    `json:"k"`
	A       int    `json:"a"`
	B       int    `json:"b"`
	H       int    `json:"h"`
	W       int    `json:"w"`
	Active  []int  `json:"active"`
}

// broadcastEpoch pushes the (installed, retired) watermarks to every
// node client that persists epoch state. Per-node failures are
// tolerated — the watermarks are monotone maxima, so any later
// broadcast (or a resumed migration's) catches a node up; only a dead
// context fails the call.
func (f *Fleet) broadcastEpoch(ctx context.Context, installed, retired uint64) error {
	f.mu.Lock()
	clients := append([]core.NodeClient(nil), f.nodes...)
	ec := f.cat.epochs[installed]
	f.mu.Unlock()
	blob, _ := json.Marshal(epochBlob{
		Epoch: ec.id, Retired: retired, N: ec.N, K: ec.K,
		A: ec.Shape.A, B: ec.Shape.B, H: ec.Shape.H, W: ec.W,
		Active: ec.Active,
	})
	for _, cl := range clients {
		es, ok := cl.(client.EpochSetter)
		if !ok {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		_ = es.SetEpoch(ctx, installed, retired, blob)
	}
	return ctx.Err()
}

// migrateObject moves one object into the target epoch: under the
// object's exclusive lock, stream it out of its current stripes stripe
// by stripe into the one seeding pipeline (seedStream) on the target
// placement — a few stripes of memory however large the object, source
// reads overlapping target seeds — swap the directory entry atomically,
// then drop the old chunks. A source stripe that cannot be read, or a
// seed that fails, unwinds the target stripes and leaves the object
// serving from its old epoch; the step is retried. Readers never block
// — they retry across the swap with refreshed metadata; writers and
// Delete hold the same lock, so nothing lands on the old stripes while
// the copy is taken. Returns the logical bytes moved (0 when the object
// is already in the target epoch or was deleted).
func (s *Store) migrateObject(ctx context.Context, key string, target *epochCfg) (int64, error) {
	f := s.fleet
	defer f.lockObject(s.tenant, key, true)()

	f.mu.Lock()
	m, ok := s.dir.objects[key]
	if !ok || m.ec == target {
		f.mu.Unlock()
		return 0, nil
	}
	src := objectMeta{size: m.size, stripes: append([]uint64(nil), m.stripes...), ec: m.ec}
	f.mu.Unlock()

	r := s.objectReader(ctx, key, src)
	defer r.close()
	placed, err := s.seedStream(ctx, target, r, src.size)
	if err != nil {
		return 0, err
	}

	// Cut over: one atomic swap of the directory entry and the object's
	// handles in the stripe table. Readers that raced the swap find their
	// old stripe gone and retry with this fresh metadata.
	f.mu.Lock()
	old, _ := f.cat.apply(cutOver{tenant: s.tenant, key: key, size: src.size, epoch: target.id, stripes: placed})
	f.mu.Unlock()

	// Drop the old epoch's chunks: a node down right now keeps orphan
	// chunks exactly like after a Delete.
	s.ctr.chunksOrphaned.Add(int64(f.dropStripes(old)))
	return int64(src.size), nil
}
