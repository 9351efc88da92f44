package service

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"trapquorum/internal/core"
)

// checkMetrics asserts the fleet-level counters did not move backwards
// since prev. It returns the new snapshot.
func checkMetrics(t *testing.T, f *Fleet, prev core.MetricsSnapshot, when string) core.MetricsSnapshot {
	t.Helper()
	now := f.Metrics()
	before, after := reflect.ValueOf(prev), reflect.ValueOf(now)
	for i := 0; i < after.NumField(); i++ {
		if after.Field(i).Int() < before.Field(i).Int() {
			t.Fatalf("%s: %s went from %d to %d", when, after.Type().Field(i).Name, before.Field(i).Int(), after.Field(i).Int())
		}
	}
	return now
}

// TestInstancesReleasedUnderChurn: under ring placement nearly every
// stripe has a placement of its own, and one protocol instance per
// epoch serves them all; over an object churn the fleet's counters
// never move backwards and count every read.
func TestInstancesReleasedUnderChurn(t *testing.T) {
	store, _ := newTestStore(t)
	f := store.fleet
	ctx := context.Background()
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	payload := make([]byte, 100)
	var m core.MetricsSnapshot
	for i := 0; i < rounds; i++ {
		key := fmt.Sprintf("obj-%d", i)
		if err := store.Put(ctx, key, payload); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Get(ctx, key); err != nil {
			t.Fatal(err)
		}
		m = checkMetrics(t, f, m, "after put "+key)
		if err := store.Delete(ctx, key); err != nil {
			t.Fatal(err)
		}
		m = checkMetrics(t, f, m, "after delete "+key)
	}
	if m.DirectReads < int64(rounds) {
		t.Fatalf("fleet counted %d direct reads over %d objects", m.DirectReads, rounds)
	}
}

// TestInstancesReleasedAcrossReconfigure: every roster change re-places
// all live stripes in a new epoch; the fleet's counters stay monotone
// across each cut-over and the stripe table holds exactly the live
// stripes.
func TestInstancesReleasedAcrossReconfigure(t *testing.T) {
	store, _ := newTestStore(t)
	f := store.fleet
	ctx := context.Background()
	objects := 400
	if testing.Short() {
		objects = 40
	}
	payload := make([]byte, 100)
	for i := 0; i < objects; i++ {
		if err := store.Put(ctx, fmt.Sprintf("obj-%d", i), payload); err != nil {
			t.Fatal(err)
		}
	}
	m := checkMetrics(t, f, core.MetricsSnapshot{}, "after the puts")
	for round := 0; round < 6; round++ {
		// Every node but one, a different one each round.
		var roster []int
		for node := 0; node < testClusterSize; node++ {
			if node != round {
				roster = append(roster, node)
			}
		}
		if err := store.Fleet().Reconfigure(ctx, ReconfigSpec{Active: roster}); err != nil {
			t.Fatal(err)
		}
		m = checkMetrics(t, f, m, fmt.Sprintf("after reconfigure %d", round))
	}
	f.mu.Lock()
	stripes := len(f.cat.stripes)
	f.mu.Unlock()
	if stripes != objects {
		t.Fatalf("%d live stripes for %d objects", stripes, objects)
	}
}

// TestBlockCacheReleasedWithChunks: removing an object's chunks drops
// what the protocol instance cached of its stripes, so a deleted
// object holds no block-cache bytes — after the seed filled the cache
// and after a write refilled it.
func TestBlockCacheReleasedWithChunks(t *testing.T) {
	store, _ := newTestStore(t)
	f := store.fleet
	ctx := context.Background()
	if err := store.Put(ctx, "obj", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if f.CachedBytes() == 0 {
		t.Fatal("the seed cached nothing")
	}
	if err := store.WriteAt(ctx, "obj", 10, []byte("patch")); err != nil {
		t.Fatal(err)
	}
	if m := f.Metrics(); m.OneRoundWrites != 1 {
		t.Fatalf("the write after the seed was not one round: %+v", m)
	}
	if err := store.Delete(ctx, "obj"); err != nil {
		t.Fatal(err)
	}
	if got := f.CachedBytes(); got != 0 {
		t.Fatalf("%d block-cache bytes outlive the deleted object", got)
	}
}
