package trapquorum

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"trapquorum/client"
	"trapquorum/internal/service"
	"trapquorum/internal/trapezoid"
)

// ErrMigrationActive rejects a Reconfigure towards a different target
// while another migration is still draining. Resume the active one
// (zero Reconfig) or AbortReconfigure first.
var ErrMigrationActive = service.ErrMigrationActive

// GrowableBackend is the optional Backend extension for online cluster
// growth on backends that can mint nodes themselves: Grow provisions
// count fresh, empty nodes and returns their clients, live
// immediately. SimBackend implements it; a reconfiguration adding
// nodes (Reconfig.AddNodes) requires it.
type GrowableBackend interface {
	// Grow provisions count fresh nodes after the current roster.
	Grow(ctx context.Context, count int) ([]client.NodeClient, error)
}

// AddrGrowableBackend is the optional Backend extension for online
// growth on address-based backends: GrowAddrs dials the given node
// daemons and appends them to the cluster. NetBackend implements it;
// a reconfiguration adding addressed nodes (Reconfig.AddNodeAddrs)
// requires it.
type AddrGrowableBackend interface {
	// GrowAddrs appends one node per address, in order.
	GrowAddrs(ctx context.Context, addrs []string) ([]client.NodeClient, error)
}

// Reconfig describes a live reconfiguration: a new erasure-code
// geometry (recode), a roster change (grow/shrink), or both. Zero
// geometry fields keep the current value, so Reconfig{AddNodes: 3}
// grows without recoding and Reconfig{N: 15, K: 8, TrapezoidA: 2,
// TrapezoidB: 3, TrapezoidH: 1, W: 3} recodes in place. The zero
// Reconfig resumes an interrupted reconfiguration (and is a no-op on a
// converged fleet).
type Reconfig struct {
	// N, K are the target erasure-code parameters (0 = keep current).
	N, K int
	// TrapezoidA/B/H parameterise the target trapezoid shape (all
	// zero = keep current). The shape must hold N-K+1 nodes.
	TrapezoidA, TrapezoidB, TrapezoidH int
	// W is the target write-quorum depth (0 = keep current).
	W int
	// AddNodes provisions this many fresh nodes from the backend
	// (GrowableBackend — the simulator) and adds them to the target
	// roster.
	AddNodes int
	// AddNodeAddrs dials these node daemons (AddrGrowableBackend —
	// NetBackend) and adds them to the target roster. Mutually
	// exclusive with AddNodes.
	AddNodeAddrs []string
	// RemoveNodes drops these cluster node ids from the target roster.
	// The nodes stay provisioned (their ids are not reused) but serve
	// no stripes once the migration completes.
	RemoveNodes []int
}

// MigrationReport is the reconfiguration half of Health(): the fleet's
// placement epochs and, while a migration drains, its progress.
type MigrationReport struct {
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
	// TotalObjects is their sum; Failures counts object moves that
	// errored and were re-queued.
	DoneObjects, PendingObjects, TotalObjects, Failures int
	// MovedBytes is the logical object bytes re-placed so far.
	MovedBytes int64
}

func migrationReport(st service.MigrationStatus) MigrationReport {
	return MigrationReport{
		Active: st.Active, Epoch: st.Epoch, Retired: st.Retired,
		From: st.From, To: st.To, TargetN: st.TargetN, TargetK: st.TargetK,
		DoneObjects: st.DoneObjects, PendingObjects: st.PendingObjects,
		TotalObjects: st.TotalObjects, Failures: st.Failures,
		MovedBytes: st.MovedBytes,
	}
}

// Reconfigure performs a live reconfiguration — grow, shrink, recode,
// or any combination — and drives the data migration to completion:
// when it returns nil, every object lives on the new placement under
// the new code, the old placement epochs are fenced at the nodes, and
// the fleet is fully converged. The store stays fully available
// throughout: reads and writes overlap the old and new quorums until
// each object cuts over, and no acked write is ever lost.
//
// If the context dies mid-migration the fleet is left safe but mixed —
// every object serves from whichever epoch it is in — and the
// migration resumes on its own when self-healing is enabled
// (WithSelfHeal runs a background migration pump), or by calling
// Reconfigure again with a zero Reconfig (same target, no new nodes).
//
// Concurrent reconfigurations towards different targets are refused
// with an ErrMigrationActive wrap.
func (s *ObjectStore) Reconfigure(ctx context.Context, rc Reconfig) error {
	f := s.svc.Fleet()
	if rc.AddNodes < 0 {
		return fmt.Errorf("trapquorum: Reconfigure: negative AddNodes %d", rc.AddNodes)
	}
	if rc.AddNodes > 0 && len(rc.AddNodeAddrs) > 0 {
		return errors.New("trapquorum: Reconfigure: AddNodes and AddNodeAddrs are mutually exclusive")
	}

	active := f.ActiveNodes()
	if rc.AddNodes > 0 || len(rc.AddNodeAddrs) > 0 {
		var clients []client.NodeClient
		var err error
		if rc.AddNodes > 0 {
			g, ok := s.backend.(GrowableBackend)
			if !ok {
				return fmt.Errorf("%w: AddNodes needs a backend implementing GrowableBackend; %T is not one",
					ErrNotSupported, s.backend)
			}
			clients, err = g.Grow(ctx, rc.AddNodes)
		} else {
			g, ok := s.backend.(AddrGrowableBackend)
			if !ok {
				return fmt.Errorf("%w: AddNodeAddrs needs a backend implementing AddrGrowableBackend; %T is not one",
					ErrNotSupported, s.backend)
			}
			clients, err = g.GrowAddrs(ctx, rc.AddNodeAddrs)
		}
		if err != nil {
			return err
		}
		first, err := f.AddNodeClients(clients...)
		if err != nil {
			return err
		}
		for i := range clients {
			active = append(active, first+i)
		}
	}
	if len(rc.RemoveNodes) > 0 {
		rm := make(map[int]bool, len(rc.RemoveNodes))
		for _, id := range rc.RemoveNodes {
			rm[id] = true
		}
		kept := active[:0]
		for _, id := range active {
			if !rm[id] {
				kept = append(kept, id)
				continue
			}
			delete(rm, id)
		}
		active = kept
		if len(rm) > 0 {
			stray := make([]int, 0, len(rm))
			for id := range rm {
				stray = append(stray, id)
			}
			sort.Ints(stray)
			return fmt.Errorf("trapquorum: Reconfigure: RemoveNodes %v not in the active roster", stray)
		}
	}
	sort.Ints(active)

	spec := service.ReconfigSpec{N: rc.N, K: rc.K, W: rc.W, Active: active}
	if rc.TrapezoidA != 0 || rc.TrapezoidB != 0 || rc.TrapezoidH != 0 {
		spec.Shape = trapezoid.Shape{A: rc.TrapezoidA, B: rc.TrapezoidB, H: rc.TrapezoidH}
	}
	return f.Reconfigure(ctx, spec)
}

// AbortReconfigure stops an active migration, leaving the fleet in
// the mixed-epoch state it reached: every object keeps serving from
// whichever epoch it is in, nothing is fenced, and Reconfigure with a
// zero Reconfig resumes the drain later. A no-op when no migration is
// active. Note that with WithSelfHeal the background migration pump
// resumes the drain on its own — abort is for stores driving their
// migrations manually.
func (s *ObjectStore) AbortReconfigure() { s.svc.Fleet().AbortReconfigure() }

// Epoch returns the placement epoch new objects are placed in. It
// starts at 1 and advances by one per reconfiguration.
func (s *ObjectStore) Epoch() uint64 { return s.svc.Fleet().Epoch() }

// ActiveNodes returns the cluster node ids serving the current
// placement epoch (after a shrink, removed nodes keep their ids but
// are absent here).
func (s *ObjectStore) ActiveNodes() []int { return s.svc.Fleet().ActiveNodes() }

// Health returns the self-healing snapshot extended with the
// reconfiguration state: the placement epochs and, while a migration
// drains, its progress. The migration report is populated with or
// without WithSelfHeal.
func (s *ObjectStore) Health() HealthReport {
	r := s.clusterHandle.Health()
	r.Migration = migrationReport(s.svc.Fleet().Migration())
	return r
}
