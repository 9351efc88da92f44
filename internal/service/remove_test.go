package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trapquorum/client"
	"trapquorum/internal/core"
	"trapquorum/internal/sim"
	"trapquorum/internal/trapezoid"
	"trapquorum/placement"
)

// Chunk removal: Delete, the three seed-failure unwinds and the
// migration cut-over all go through Fleet.dropStripes. These tests run
// a (9,6) code round-robin over nine nodes, so every stripe puts
// exactly one chunk on every node and a node's ChunkCount is the
// number of stripes alive.

const removeNodes = 9

// probe is what the probed node clients of one fleet share: faults to
// inject into PutChunk (breaking a seed midway) and ReadChunk (breaking
// a migration's source read), a hook that may hold a PutChunk before it
// goes on, and a rendezvous that holds DeleteChunk calls until enough
// of them are in flight.
type probe struct {
	failPut  atomic.Pointer[func(client.ChunkID) bool]
	failRead atomic.Pointer[func(client.ChunkID) bool]
	holdPut  atomic.Pointer[func(client.ChunkID)]

	mu       sync.Mutex
	want     int // 0: DeleteChunk passes straight through
	inflight int
	peak     int
	met      chan struct{} // closed once want calls are in flight together
	patience time.Duration
}

// arm makes every DeleteChunk wait until want of them are in flight at
// once, or for patience.
func (p *probe) arm(want int, patience time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.want, p.inflight, p.peak = want, 0, 0
	p.met, p.patience = make(chan struct{}), patience
}

// rendezvous reports whether want calls were ever in flight together,
// and the most that were.
func (p *probe) rendezvous() (met bool, peak int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case <-p.met:
		met = true
	default:
	}
	return met, p.peak
}

type probedNode struct {
	core.NodeClient
	p *probe
}

func (n probedNode) PutChunk(ctx context.Context, id client.ChunkID, data []byte, versions []uint64, sums ...client.BlockSum) error {
	if hold := n.p.holdPut.Load(); hold != nil {
		(*hold)(id)
	}
	if fail := n.p.failPut.Load(); fail != nil && (*fail)(id) {
		return fmt.Errorf("%w: injected", client.ErrNodeDown)
	}
	return n.NodeClient.PutChunk(ctx, id, data, versions, sums...)
}

func (n probedNode) ReadChunk(ctx context.Context, id client.ChunkID) (client.Chunk, error) {
	if fail := n.p.failRead.Load(); fail != nil && (*fail)(id) {
		return client.Chunk{}, fmt.Errorf("%w: injected", client.ErrNodeDown)
	}
	return n.NodeClient.ReadChunk(ctx, id)
}

func (n probedNode) DeleteChunk(ctx context.Context, id client.ChunkID) error {
	p := n.p
	p.mu.Lock()
	if p.want == 0 {
		p.mu.Unlock()
		return n.NodeClient.DeleteChunk(ctx, id)
	}
	p.inflight++
	if p.inflight > p.peak {
		p.peak = p.inflight
		if p.peak == p.want {
			close(p.met)
		}
	}
	met, patience := p.met, p.patience
	p.mu.Unlock()
	select {
	case <-met:
	case <-time.After(patience):
	}
	p.mu.Lock()
	p.inflight--
	p.mu.Unlock()
	return n.NodeClient.DeleteChunk(ctx, id)
}

// newProbedStore builds a single-tenant (9,6) store over clusterSize
// probed nodes, placed round-robin on the first nine.
func newProbedStore(t *testing.T, clusterSize, concurrency int) (*Store, *sim.Cluster, *probe) {
	t.Helper()
	cluster, err := sim.NewCluster(clusterSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	p := &probe{}
	nodes := make([]core.NodeClient, clusterSize)
	for j := range nodes {
		nodes[j] = probedNode{NodeClient: cluster.Node(j), p: p}
	}
	strat, err := placement.NewRoundRobin(removeNodes)
	if err != nil {
		t.Fatal(err)
	}
	store, err := New(nodes, Config{
		N: 9, K: 6,
		Shape: trapezoid.Shape{A: 2, B: 1, H: 1}, W: 2,
		BlockSize:   testBlockSize,
		Placement:   strat,
		Concurrency: concurrency,
	})
	if err != nil {
		t.Fatal(err)
	}
	return store, cluster, p
}

// chunkCounts reads every node's chunk count straight from its engine,
// so a crashed node still answers.
func chunkCounts(t *testing.T, cluster *sim.Cluster) []int {
	t.Helper()
	out := make([]int, cluster.Size())
	for j := range out {
		n, err := cluster.Node(j).Engine().ChunkCount(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out[j] = n
	}
	return out
}

// registeredStripes lists every stripe in the fleet's stripe table.
func registeredStripes(f *Fleet) []uint64 { return f.Stripes() }

// lockedBlocks counts the entries of every epoch's block-lock table.
// The table is unexported core state; reflection reads its length
// without widening core's API for a test.
func lockedBlocks(f *Fleet) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, ec := range f.cat.epochs {
		n += reflect.ValueOf(ec.sys).Elem().FieldByName("locks").Len()
	}
	return n
}

// stripesOfBytes is an object size spanning the given number of (9,6)
// stripes, the last one partly filled.
func stripesOfBytes(stripes int) []byte {
	return streamPattern(stripes*6*testBlockSize - 10)
}

// TestDeleteFansOut: the nine removals of a one-stripe object are in
// flight together under the default engine — each DeleteChunk is held
// until all nine have arrived, so a sequential walk could never finish
// — and strictly one at a time under Concurrency 1.
func TestDeleteFansOut(t *testing.T) {
	ctx := context.Background()
	t.Run("default", func(t *testing.T) {
		store, _, p := newProbedStore(t, removeNodes, 0)
		if err := store.Put(ctx, "obj", stripesOfBytes(1)); err != nil {
			t.Fatal(err)
		}
		p.arm(removeNodes, 5*time.Second)
		if err := store.Delete(ctx, "obj"); err != nil {
			t.Fatal(err)
		}
		if met, peak := p.rendezvous(); !met {
			t.Fatalf("at most %d of %d removals were in flight together", peak, removeNodes)
		}
	})
	t.Run("concurrency-1", func(t *testing.T) {
		store, _, p := newProbedStore(t, removeNodes, 1)
		if err := store.Put(ctx, "obj", stripesOfBytes(1)); err != nil {
			t.Fatal(err)
		}
		// Every removal waits a while for a second one to join it; under
		// the sequential engine none does.
		p.arm(2, 20*time.Millisecond)
		if err := store.Delete(ctx, "obj"); err != nil {
			t.Fatal(err)
		}
		if _, peak := p.rendezvous(); peak != 1 {
			t.Fatalf("%d removals in flight together with Concurrency 1", peak)
		}
	})
}

// TestDeleteMultiStripeRestoresNodes: an acknowledged Delete of a
// multi-stripe object has removed every chunk and every registration.
func TestDeleteMultiStripeRestoresNodes(t *testing.T) {
	ctx := context.Background()
	store, cluster, _ := newProbedStore(t, removeNodes, 0)
	if err := store.Put(ctx, "stays", stripesOfBytes(2)); err != nil {
		t.Fatal(err)
	}
	before := chunkCounts(t, cluster)
	kept := registeredStripes(store.fleet)
	if err := store.Put(ctx, "goes", stripesOfBytes(5)); err != nil {
		t.Fatal(err)
	}
	if err := store.Delete(ctx, "goes"); err != nil {
		t.Fatal(err)
	}
	if after := chunkCounts(t, cluster); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("chunk counts %v after delete, %v before put", after, before)
	}
	if left := registeredStripes(store.fleet); len(left) != len(kept) {
		t.Fatalf("stripes %v still registered, want only %v", left, kept)
	}
	if got := store.Fleet().Stripes(); len(got) != len(kept) {
		t.Fatalf("fleet lists stripes %v, want only %v", got, kept)
	}
	if m := store.TenantMetrics(); m.ChunksOrphaned != 0 || m.Deletes != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

// TestDeleteWithNodeDownCountsOrphans: Delete stays best-effort — a
// down node keeps its chunks, the rest are clean, and the orphans are
// counted.
func TestDeleteWithNodeDownCountsOrphans(t *testing.T) {
	ctx := context.Background()
	const stripes, down = 4, 4
	store, cluster, _ := newProbedStore(t, removeNodes, 0)
	if err := store.Put(ctx, "obj", stripesOfBytes(stripes)); err != nil {
		t.Fatal(err)
	}
	cluster.Crash(down)
	if err := store.Delete(ctx, "obj"); err != nil {
		t.Fatalf("delete with one node down: %v", err)
	}
	for j, n := range chunkCounts(t, cluster) {
		want := 0
		if j == down {
			want = stripes
		}
		if n != want {
			t.Errorf("node %d holds %d chunks, want %d", j, n, want)
		}
	}
	if got := store.TenantMetrics().ChunksOrphaned; got != stripes {
		t.Fatalf("ChunksOrphaned = %d, want %d", got, stripes)
	}
	if left := registeredStripes(store.fleet); len(left) != 0 {
		t.Fatalf("stripes %v still registered", left)
	}
}

// TestDeleteRemovalIsBounded: one node's link swallows every request,
// so its removals never answer. Delete still returns within the unwind
// budget, whatever its own context allows, with the key gone and every
// chunk of the silent node counted as an orphan.
func TestDeleteRemovalIsBounded(t *testing.T) {
	const stripes, silent = 3, 4
	store, cluster, _ := newProbedStore(t, removeNodes, 0)
	if err := store.Put(context.Background(), "obj", stripesOfBytes(stripes)); err != nil {
		t.Fatal(err)
	}
	held := chunkCounts(t, cluster)[silent]
	cluster.SetLinkFault(silent, sim.LinkFault{ReqLoss: 1}, 1)
	const wait = 200 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- store.Delete(ctx, "obj") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("delete with a silent node: %v", err)
		}
	case <-time.After(wait + core.UnwindBudget + 2*time.Second):
		t.Fatalf("Delete still blocked %v after it began", time.Since(start))
	}
	t.Logf("Delete returned after %v", time.Since(start))
	if keys := store.Keys(); len(keys) != 0 {
		t.Fatalf("keys %v after the delete", keys)
	}
	if got := store.TenantMetrics().ChunksOrphaned; got != int64(held) {
		t.Fatalf("ChunksOrphaned = %d, want the silent node's %d chunks", got, held)
	}
	cluster.SetLinkFault(silent, sim.LinkFault{}, 0)
	for j, n := range chunkCounts(t, cluster) {
		want := 0
		if j == silent {
			want = held
		}
		if n != want {
			t.Errorf("node %d holds %d chunks, want %d", j, n, want)
		}
	}
}

// removalLog records, by node, the removals a fleet sent: single
// DeleteChunk calls, and the id count of every DeleteChunks request.
type removalLog struct {
	mu     sync.Mutex
	single []int
	frames [][]int
}

func (l *removalLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	clear(l.single)
	clear(l.frames)
}

// node returns what node j was sent.
func (l *removalLog) node(j int) (single int, frames []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.single[j], append([]int(nil), l.frames[j]...)
}

// loggedNode logs the removals sent to one node. It hides
// client.ChunkRemover; loggedRemover exposes it.
type loggedNode struct {
	core.NodeClient
	j   int
	log *removalLog
}

func (n loggedNode) DeleteChunk(ctx context.Context, id client.ChunkID) error {
	n.log.mu.Lock()
	n.log.single[n.j]++
	n.log.mu.Unlock()
	return n.NodeClient.DeleteChunk(ctx, id)
}

type loggedRemover struct{ loggedNode }

func (n loggedRemover) DeleteChunks(ctx context.Context, ids []client.ChunkID) error {
	n.log.mu.Lock()
	n.log.frames[n.j] = append(n.log.frames[n.j], len(ids))
	n.log.mu.Unlock()
	return n.NodeClient.(client.ChunkRemover).DeleteChunks(ctx, ids)
}

// newLoggedStore is newProbedStore over logged nodes, which implement
// client.ChunkRemover when remover is set.
func newLoggedStore(t *testing.T, remover bool) (*Store, *sim.Cluster, *removalLog) {
	t.Helper()
	cluster, err := sim.NewCluster(removeNodes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	log := &removalLog{single: make([]int, removeNodes), frames: make([][]int, removeNodes)}
	nodes := make([]core.NodeClient, removeNodes)
	for j := range nodes {
		n := loggedNode{NodeClient: cluster.Node(j), j: j, log: log}
		if remover {
			nodes[j] = loggedRemover{n}
		} else {
			nodes[j] = n
		}
	}
	strat, err := placement.NewRoundRobin(removeNodes)
	if err != nil {
		t.Fatal(err)
	}
	store, err := New(nodes, Config{
		N: 9, K: 6,
		Shape: trapezoid.Shape{A: 2, B: 1, H: 1}, W: 2,
		BlockSize: testBlockSize,
		Placement: strat,
	})
	if err != nil {
		t.Fatal(err)
	}
	return store, cluster, log
}

// TestDeleteSendsOneFramePerNode: a node implementing
// client.ChunkRemover is sent all of its chunks of a Delete in one
// request, split at removalFrame ids, and a node that holds one chunk
// a plain DeleteChunk; a node without the capability gets one
// DeleteChunk per chunk. Either way every chunk is gone.
func TestDeleteSendsOneFramePerNode(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name    string
		remover bool
		stripes int
		single  int   // DeleteChunk calls per node
		frames  []int // ids per DeleteChunks request, per node
	}{
		{"ChunkRemover/1 stripe", true, 1, 1, nil},
		{"ChunkRemover/3 stripes", true, 3, 0, []int{3}},
		{"ChunkRemover/removalFrame+1 stripes", true, removalFrame + 1, 1, []int{removalFrame}},
		{"per chunk/3 stripes", false, 3, 3, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store, cluster, log := newLoggedStore(t, tc.remover)
			if err := store.Put(ctx, "obj", stripesOfBytes(tc.stripes)); err != nil {
				t.Fatal(err)
			}
			log.reset()
			if err := store.Delete(ctx, "obj"); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < removeNodes; j++ {
				single, frames := log.node(j)
				if single != tc.single || fmt.Sprint(frames) != fmt.Sprint(tc.frames) {
					t.Errorf("node %d: %d DeleteChunk and frames %v, want %d and %v", j, single, frames, tc.single, tc.frames)
				}
			}
			for j, n := range chunkCounts(t, cluster) {
				if n != 0 {
					t.Errorf("node %d holds %d chunks after the delete", j, n)
				}
			}
			if m := store.TenantMetrics(); m.ChunksOrphaned != 0 {
				t.Fatalf("ChunksOrphaned = %d with every node up", m.ChunksOrphaned)
			}
		})
	}
}

// TestDeleteFrameToDownNodeCountsEveryID: a removal request that
// fails orphans every chunk it listed — with one node down, the count
// is that node's chunk count, exactly as with per-chunk removals.
func TestDeleteFrameToDownNodeCountsEveryID(t *testing.T) {
	ctx := context.Background()
	const stripes, down = 4, 4
	store, cluster, log := newLoggedStore(t, true)
	if err := store.Put(ctx, "obj", stripesOfBytes(stripes)); err != nil {
		t.Fatal(err)
	}
	cluster.Crash(down)
	log.reset()
	if err := store.Delete(ctx, "obj"); err != nil {
		t.Fatalf("delete with one node down: %v", err)
	}
	if _, frames := log.node(down); fmt.Sprint(frames) != fmt.Sprint([]int{stripes}) {
		t.Fatalf("down node was sent frames %v, want one of %d ids", frames, stripes)
	}
	for j, n := range chunkCounts(t, cluster) {
		want := 0
		if j == down {
			want = stripes
		}
		if n != want {
			t.Errorf("node %d holds %d chunks, want %d", j, n, want)
		}
	}
	if got := store.TenantMetrics().ChunksOrphaned; got != stripes {
		t.Fatalf("ChunksOrphaned = %d, want %d", got, stripes)
	}
}

// TestFailedSeedLeavesNoChunks fails the one seeding pipeline partway
// through a three-stripe object from each of its callers — a seed of
// the second stripe breaks on one shard (the first stripe is whole, the
// second partly installed), or the migration's source turns unreadable
// at its second stripe — and checks that the unwind left nothing
// behind, that an object being moved still serves from its old epoch,
// and that the same call goes through once the fault is gone.
func TestFailedSeedLeavesNoChunks(t *testing.T) {
	ctx := context.Background()
	payload := stripesOfBytes(3)
	// breakSecondSeed fails shard 3 of the second stripe allocated from
	// now on.
	breakSecondSeed := func(s *Store, p *probe) {
		s.fleet.mu.Lock()
		doomed := s.fleet.cat.nextStripe + 1
		s.fleet.mu.Unlock()
		fail := func(id client.ChunkID) bool { return id.Stripe == doomed && id.Shard == 3 }
		p.failPut.Store(&fail)
	}
	// breakSecondSource makes every chunk of the moved object's second
	// stripe unreadable.
	breakSecondSource := func(s *Store, p *probe) {
		stripes, err := s.StripesOf("moved")
		if err != nil {
			t.Fatal(err)
		}
		fail := func(id client.ChunkID) bool { return id.Stripe == stripes[1] }
		p.failRead.Store(&fail)
	}
	// startMove stores the object and starts moving the roster three
	// nodes along: 3..11.
	startMove := func(t *testing.T, s *Store) {
		if err := s.Put(ctx, "moved", payload); err != nil {
			t.Fatal(err)
		}
		roster := make([]int, removeNodes)
		for i := range roster {
			roster[i] = i + 3
		}
		if err := s.fleet.StartReconfigure(ctx, ReconfigSpec{Active: roster}); err != nil {
			t.Fatal(err)
		}
	}
	put := func(s *Store) error { return s.Put(ctx, "doomed", payload) }
	putReader := func(s *Store) error {
		return s.PutReader(ctx, "doomed", bytes.NewReader(payload), len(payload))
	}
	migrationStep := func(s *Store) error {
		_, err := s.fleet.MigrationStep(ctx)
		return err
	}
	cases := []struct {
		name    string
		nodes   int
		key     string
		prepare func(*testing.T, *Store) // state the seeding call needs
		fault   func(*Store, *probe)
		seed    func(*Store) error // the call that seeds three stripes
		wantErr error
	}{
		{"Put", removeNodes, "doomed", nil, breakSecondSeed, put, client.ErrNodeDown},
		{"PutReader", removeNodes, "doomed", nil, breakSecondSeed, putReader, client.ErrNodeDown},
		{"MigrationStep", removeNodes + 3, "moved", startMove, breakSecondSeed, migrationStep, client.ErrNodeDown},
		{"MigrationStep/source unreadable", removeNodes + 3, "moved", startMove, breakSecondSource, migrationStep, core.ErrNotReadable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store, cluster, p := newProbedStore(t, tc.nodes, 0)
			f := store.fleet
			if tc.prepare != nil {
				tc.prepare(t, store)
			}
			before := chunkCounts(t, cluster)
			old := registeredStripes(f)
			tc.fault(store, p)
			if err := tc.seed(store); !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			p.failPut.Store(nil)
			p.failRead.Store(nil)

			// The nodes hold what they held before, and only the stripes
			// registered before are still registered.
			if after := chunkCounts(t, cluster); fmt.Sprint(after) != fmt.Sprint(before) {
				t.Fatalf("chunk counts %v after the failed seed, %v before", after, before)
			}
			if left := registeredStripes(f); len(left) != len(old) {
				t.Fatalf("stripes %v registered after the unwind, want %v", left, old)
			}
			if tc.prepare != nil {
				if got, err := store.Get(ctx, tc.key); err != nil || !bytes.Equal(got, payload) {
					t.Fatalf("object in its old epoch after the failed move: %v", err)
				}
				if st := f.Migration(); st.DoneObjects != 0 || st.PendingObjects != 1 {
					t.Fatalf("migration after the failed move: %+v", st)
				}
			}

			// With the fault gone the same call goes through: three fresh
			// stripes on the current roster and nowhere else — a cut-over
			// drops the old epoch's chunks through the same helper.
			if err := tc.seed(store); err != nil {
				t.Fatal(err)
			}
			onRoster := make(map[int]bool)
			for _, j := range f.ActiveNodes() {
				onRoster[j] = true
			}
			for j, n := range chunkCounts(t, cluster) {
				want := 0
				if onRoster[j] {
					want = 3
				}
				if n != want {
					t.Errorf("node %d holds %d chunks, want %d", j, n, want)
				}
			}
			now := registeredStripes(f)
			if len(now) != 3 {
				t.Errorf("stripes %v registered, want three", now)
			}
			for _, st := range now {
				for _, o := range old {
					if st == o {
						t.Errorf("old stripe %d still registered after cut-over", st)
					}
				}
			}
			if got, err := store.Get(ctx, tc.key); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("object after the retry: %v", err)
			}
			if got := store.TenantMetrics().ChunksOrphaned; got != 0 {
				t.Fatalf("ChunksOrphaned = %d with every node up", got)
			}
		})
	}
}

// TestObjectLockTableDrains: the per-object lock table, and every
// epoch's per-block writer lock table, hold an entry only while an
// operation uses it — churn over fresh keys, deletes of keys that never
// existed, and writers sharing one key's lock all leave both empty.
func TestObjectLockTableDrains(t *testing.T) {
	ctx := context.Background()
	store, _, _ := newProbedStore(t, removeNodes, 0)
	payload := stripesOfBytes(1)
	if err := store.Put(ctx, "shared", payload); err != nil {
		t.Fatal(err)
	}
	const workers, cycles = 4, 250
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				key := fmt.Sprintf("w%d/o%d", w, i)
				if err := store.Put(ctx, key, payload); err != nil {
					t.Error(err)
					return
				}
				if err := store.WriteAt(ctx, "shared", w, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if err := store.Delete(ctx, key); err != nil {
					t.Error(err)
					return
				}
				if err := store.Delete(ctx, key+"/never"); !errors.Is(err, ErrUnknownKey) {
					t.Errorf("delete of unknown key: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	store.fleet.mu.Lock()
	left := len(store.fleet.locks)
	store.fleet.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d entries left in the object lock table", left)
	}
	if left := lockedBlocks(store.fleet); left != 0 {
		t.Fatalf("%d entries left in the block lock tables", left)
	}
}
