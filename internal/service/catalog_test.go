package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"trapquorum/internal/core"
	"trapquorum/internal/sim"
	"trapquorum/internal/trapezoid"
	"trapquorum/placement"
)

// catalogView is what a catalog holds, as plain values. Empty tenant
// namespaces are left out: an empty namespace and none are the same
// state.
type catalogView struct {
	Objects      map[string]map[string]objectView // tenant → key → object
	UsedBytes    map[string]int64
	Stripes      map[uint64]stripeView
	NextStripe   uint64
	Epochs       map[uint64]epochView
	Cur, Retired uint64
}

type objectView struct {
	Size    int
	Stripes []uint64
	Epoch   uint64
}

type stripeView struct {
	Stripe core.Stripe
	Epoch  uint64
}

type epochView struct {
	N, K   int
	Shape  trapezoid.Shape
	W      int
	Active []int
}

func viewOf(c *catalog) catalogView {
	v := catalogView{
		Objects: map[string]map[string]objectView{}, UsedBytes: map[string]int64{},
		Stripes: map[uint64]stripeView{}, NextStripe: c.nextStripe,
		Epochs: map[uint64]epochView{}, Cur: c.cur.id, Retired: c.retired,
	}
	for tenant, d := range c.dirs {
		if len(d.objects) == 0 && d.usedBytes == 0 {
			continue
		}
		v.UsedBytes[tenant] = d.usedBytes
		v.Objects[tenant] = map[string]objectView{}
		for key, o := range d.objects {
			v.Objects[tenant][key] = objectView{o.size, o.stripes, o.ec.id}
		}
	}
	for id, p := range c.stripes {
		v.Stripes[id] = stripeView{p.Stripe, p.ec.id}
	}
	for id, ec := range c.epochs {
		v.Epochs[id] = epochView{ec.N, ec.K, ec.Shape, ec.W, ec.Active}
	}
	return v
}

// catalogClient drives one tenant with a seeded random mix of Put,
// PutReader, Delete, WriteAt and Get, checking every Get against its
// own oracle.
type catalogClient struct {
	s      *Store
	rng    *rand.Rand
	oracle map[string][]byte
	keys   []string
	next   int
}

func (c *catalogClient) run(ctx context.Context, ops int) error {
	for range ops {
		if err := c.step(ctx); err != nil {
			return fmt.Errorf("tenant %s: %w", c.s.Tenant(), err)
		}
	}
	return nil
}

func (c *catalogClient) step(ctx context.Context) error {
	op := c.rng.Intn(10)
	if len(c.keys) == 0 {
		op = 0
	}
	pick := c.rng.Intn(max(1, len(c.keys)))
	switch {
	case op < 4: // Put or PutReader of up to a few stripes
		key := fmt.Sprintf("obj%d", c.next)
		c.next++
		data := make([]byte, c.rng.Intn(1500))
		c.rng.Read(data)
		var err error
		if op < 2 {
			err = c.s.Put(ctx, key, data)
		} else {
			err = c.s.PutReader(ctx, key, bytes.NewReader(data), len(data))
		}
		if err != nil {
			return fmt.Errorf("put %q: %w", key, err)
		}
		c.oracle[key] = data
		c.keys = append(c.keys, key)
	case op < 6:
		key := c.keys[pick]
		if err := c.s.Delete(ctx, key); err != nil {
			return fmt.Errorf("delete %q: %w", key, err)
		}
		delete(c.oracle, key)
		c.keys = append(c.keys[:pick], c.keys[pick+1:]...)
	case op < 8:
		key := c.keys[pick]
		data := c.oracle[key]
		if len(data) == 0 {
			return nil
		}
		off := c.rng.Intn(len(data))
		p := make([]byte, c.rng.Intn(len(data)-off)+1)
		c.rng.Read(p)
		if err := c.s.WriteAt(ctx, key, off, p); err != nil {
			return fmt.Errorf("write %q at %d: %w", key, off, err)
		}
		copy(data[off:], p)
	default:
		key := c.keys[pick]
		got, err := c.s.Get(ctx, key)
		if err != nil {
			return fmt.Errorf("get %q: %w", key, err)
		}
		if !bytes.Equal(got, c.oracle[key]) {
			return fmt.Errorf("get %q: bytes differ from the oracle", key)
		}
	}
	return nil
}

// TestCatalogReplay records every mutation applied to a fleet's
// catalog through a seeded run — two tenants' clients at once, a Put
// that fails mid-seed with a node crashed (its stripe ids allocated,
// never committed), a caller-named SeedStripe, a grow and a recode
// driven to completion under the clients' traffic — and replays the
// record into a fresh catalog: it must hold the same objects and used
// bytes, the same stripe table and allocator, the same epochs, and the
// same current and retired epoch.
func TestCatalogReplay(t *testing.T) {
	ctx := context.Background()
	const nodes = 9
	cluster, err := sim.NewCluster(nodes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	strat, err := placement.NewRoundRobin(nodes)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(clientsOf(cluster), Config{
		N: 9, K: 6, Shape: trapezoid.Shape{A: 2, B: 1, H: 1}, W: 2,
		BlockSize: 64, Placement: strat,
	})
	if err != nil {
		t.Fatal(err)
	}
	var log []mutation
	f.mu.Lock()
	// The first epoch is the snapshot the record starts from.
	log = append(log, installEpoch{id: f.cat.cur.id, spec: f.cat.cur.ReconfigSpec})
	f.cat.observe = func(m mutation) { log = append(log, m) }
	f.mu.Unlock()

	var clients []*catalogClient
	for i, tenant := range []string{"a", "b"} {
		s, err := f.Tenant(tenant, Quota{})
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, &catalogClient{s: s, rng: rand.New(rand.NewSource(int64(7 + i))), oracle: map[string][]byte{}})
	}
	// phase runs both clients for ops steps each, beside during when
	// it is not nil.
	phase := func(ops int, during func() error) {
		t.Helper()
		errs := make(chan error, len(clients)+1)
		var wg sync.WaitGroup
		for _, c := range clients {
			wg.Add(1)
			go func() { defer wg.Done(); errs <- c.run(ctx, ops) }()
		}
		if during != nil {
			errs <- during()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	phase(25, nil)

	// Every stripe spans all nine nodes: with one down the seed fails,
	// and the stripe ids it took stay taken.
	f.mu.Lock()
	before := f.cat.nextStripe
	f.mu.Unlock()
	cluster.Crash(0)
	err = clients[0].s.Put(ctx, "doomed", make([]byte, 900))
	cluster.Restart(0)
	if err == nil {
		t.Fatal("Put with a node down succeeded")
	}
	if _, err := clients[0].s.Size("doomed"); !errors.Is(err, ErrUnknownKey) {
		t.Fatalf("failed Put left its key behind: %v", err)
	}
	f.mu.Lock()
	after := f.cat.nextStripe
	f.mu.Unlock()
	if after <= before {
		t.Fatalf("failed Put allocated no stripe id (%d → %d)", before, after)
	}

	// A caller-named stripe ahead of the allocator.
	blocks := make([][]byte, 6)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i + 1)}, 64)
	}
	if err := f.SeedStripe(ctx, after+5, blocks); err != nil {
		t.Fatal(err)
	}

	// Grow to twelve nodes, then recode to (12,8), each under traffic.
	added, err := cluster.AddNodes(3)
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]core.NodeClient, len(added))
	for i, n := range added {
		fresh[i] = n
	}
	if _, err := f.AddNodeClients(fresh...); err != nil {
		t.Fatal(err)
	}
	phase(25, func() error {
		return f.Reconfigure(ctx, ReconfigSpec{Active: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}})
	})
	phase(25, func() error {
		return f.Reconfigure(ctx, ReconfigSpec{N: 12, K: 8, Shape: trapezoid.Shape{A: 1, B: 2, H: 1}, W: 2})
	})
	if st := f.Migration(); st.Active || st.Epoch != 3 || st.Retired != 2 {
		t.Fatalf("reconfigurations did not converge: %+v", st)
	}

	f.mu.Lock()
	f.cat.observe = nil
	live := viewOf(&f.cat)
	f.mu.Unlock()
	replayed := newCatalog(f.newEpoch)
	for i, m := range log {
		if _, err := replayed.apply(m); err != nil {
			t.Fatalf("replaying mutation %d (%T): %v", i, m, err)
		}
	}
	lv, rv := reflect.ValueOf(live), reflect.ValueOf(viewOf(&replayed))
	for i := range lv.NumField() {
		if want, got := lv.Field(i).Interface(), rv.Field(i).Interface(); !reflect.DeepEqual(got, want) {
			t.Errorf("replayed %s differs from the live catalog's:\nlive     %+v\nreplayed %+v", lv.Type().Field(i).Name, want, got)
		}
	}

	kinds := map[string]int{}
	for _, m := range log {
		kinds[fmt.Sprintf("%T", m)]++
	}
	for _, m := range []mutation{commitObject{}, removeObject{}, cutOver{}, seedStripe{}, allocStripes{}, installEpoch{}, retireEpochs{}} {
		if kinds[fmt.Sprintf("%T", m)] == 0 {
			t.Errorf("the run applied no %T", m)
		}
	}
	t.Logf("%d mutations replayed: %v", len(log), kinds)
}
