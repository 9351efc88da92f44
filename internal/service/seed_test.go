package service

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"trapquorum/internal/core"
	"trapquorum/internal/repairsched"
)

// seedCallerStripe seeds caller-named stripe id with k random blocks
// of testBlockSize bytes and returns them.
func seedCallerStripe(t *testing.T, f *Fleet, id uint64) [][]byte {
	t.Helper()
	r := rand.New(rand.NewSource(int64(id)))
	blocks := make([][]byte, f.cfg.K)
	for i := range blocks {
		blocks[i] = make([]byte, testBlockSize)
		r.Read(blocks[i])
	}
	if err := f.SeedStripe(context.Background(), id, blocks); err != nil {
		t.Fatal(err)
	}
	return blocks
}

// checkCallerStripe reads every block of stripe id back through its
// handle and compares it with want.
func checkCallerStripe(t *testing.T, f *Fleet, id uint64, want [][]byte) {
	t.Helper()
	st, sys, err := f.Stripe(id)
	if err != nil {
		t.Fatal(err)
	}
	for i, block := range want {
		got, _, err := sys.ReadBlock(context.Background(), st, i)
		if err != nil {
			t.Fatalf("stripe %d block %d: %v", id, i, err)
		}
		if !bytes.Equal(got, block) {
			t.Fatalf("stripe %d block %d: bytes differ", id, i)
		}
	}
}

func TestSeedStripePlacesShardOnRosterNode(t *testing.T) {
	store, _ := newTestStore(t)
	f := store.Fleet()
	seedCallerStripe(t, f, 7)
	st, _, err := f.Stripe(7)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != 7 || st.BlockSize != testBlockSize || len(st.Nodes) != f.cfg.N {
		t.Fatalf("handle %+v", st)
	}
	for j, node := range st.Nodes {
		if node != j {
			t.Fatalf("shard %d on node %d, want roster node %d", j, node, j)
		}
	}
}

func TestAllocatorSkipsCallerNamedStripes(t *testing.T) {
	store, _ := newTestStore(t)
	ctx := context.Background()
	seedCallerStripe(t, store.Fleet(), 7)
	data := bytes.Repeat([]byte{3}, 2*store.Fleet().cfg.K*testBlockSize)
	if err := store.Put(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	stripes, err := store.StripesOf("obj")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range stripes {
		if id <= 7 {
			t.Fatalf("tenant Put allocated stripe %d after caller-named stripe 7 (%v)", id, stripes)
		}
	}
}

func TestTenantDeleteLeavesCallerStripe(t *testing.T) {
	store, _ := newTestStore(t)
	ctx := context.Background()
	f := store.Fleet()
	want := seedCallerStripe(t, f, 7)
	if err := store.Put(ctx, "obj", bytes.Repeat([]byte{5}, 300)); err != nil {
		t.Fatal(err)
	}
	if err := store.Delete(ctx, "obj"); err != nil {
		t.Fatal(err)
	}
	if got := f.Stripes(); !slices.Equal(got, []uint64{7}) {
		t.Fatalf("stripe table after Delete = %v, want [7]", got)
	}
	checkCallerStripe(t, f, 7, want)
}

func TestStripeUnknownID(t *testing.T) {
	store, _ := newTestStore(t)
	if _, _, err := store.Fleet().Stripe(99); !errors.Is(err, core.ErrUnknownStripe) {
		t.Fatalf("err = %v, want an ErrUnknownStripe wrap", err)
	}
}

// TestCallerStripeRepairAndScrub: the self-heal planner and scrubber
// see caller-named stripes like any tenant's.
func TestCallerStripeRepairAndScrub(t *testing.T) {
	store, cluster := newTestStore(t)
	ctx := context.Background()
	f := store.Fleet()
	want := seedCallerStripe(t, f, 7)
	up := func(int) bool { return false }

	tasks := f.PlanNodeRepairs(3, up)
	if !slices.ContainsFunc(tasks, func(task repairsched.Task) bool { return task.Stripe == 7 && task.Shard == 3 && task.Node == 3 }) {
		t.Fatalf("node 3's repair plan %+v misses stripe 7 shard 3", tasks)
	}

	if err := cluster.Node(3).Wipe(ctx); err != nil {
		t.Fatal(err)
	}
	found, err := f.ScrubStripe(ctx, 7, up)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || found[0].Stripe != 7 || found[0].Shard != 3 {
		t.Fatalf("scrub of stripe 7 after wiping node 3 found %+v", found)
	}
	if err := f.Repair(ctx, found[0]); err != nil {
		t.Fatal(err)
	}
	if found, err := f.ScrubStripe(ctx, 7, up); err != nil || len(found) != 0 {
		t.Fatalf("scrub after repair: %+v, %v", found, err)
	}
	checkCallerStripe(t, f, 7, want)
}
