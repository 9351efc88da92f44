package service

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"trapquorum/internal/core"
)

// checkInstances asserts the fleet holds exactly the protocol instances
// its live stripes are bound to, and that the fleet-level counters did
// not move backwards since prev. It returns the new snapshot.
func checkInstances(t *testing.T, f *Fleet, prev core.MetricsSnapshot, when string) core.MetricsSnapshot {
	t.Helper()
	f.mu.Lock()
	live := make(map[*core.System]bool)
	for _, sys := range f.stripeSys {
		live[sys] = true
	}
	held, refs := len(f.systems), len(f.sysRefs)
	for _, sys := range f.systems {
		if !live[sys] {
			t.Errorf("%s: an instance with no live stripe is still held", when)
			break
		}
	}
	f.mu.Unlock()
	if held != len(live) || refs != len(live) {
		t.Fatalf("%s: %d instances held (%d ref entries) for %d in use", when, held, refs, len(live))
	}
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
// stripe has a placement — hence a protocol instance — of its own, so
// an object churn must release each instance with its last stripe
// while the fleet's counters keep what the instance counted.
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
		m = checkInstances(t, f, m, "after put "+key)
		if err := store.Delete(ctx, key); err != nil {
			t.Fatal(err)
		}
		m = checkInstances(t, f, m, "after delete "+key)
	}
	if m.DirectReads < int64(rounds) {
		t.Fatalf("fleet counted %d direct reads over %d objects: released instances' counters were lost", m.DirectReads, rounds)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.systems) != 0 {
		t.Fatalf("%d instances held for 0 live stripes", len(f.systems))
	}
}

// TestInstancesReleasedAcrossReconfigure: every roster change re-places
// all live stripes in a new epoch; the retired epoch's instances must
// go with the stripes the migration drops.
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
	m := checkInstances(t, f, core.MetricsSnapshot{}, "after the puts")
	for round := 0; round < 6; round++ {
		// Every node but one, a different one each round.
		var roster []int
		for node := 0; node < testClusterSize; node++ {
			if node != round {
				roster = append(roster, node)
			}
		}
		if err := store.Reconfigure(ctx, ReconfigSpec{Active: roster}); err != nil {
			t.Fatal(err)
		}
		m = checkInstances(t, f, m, fmt.Sprintf("after reconfigure %d", round))
	}
	f.mu.Lock()
	stripes := len(f.stripeSys)
	f.mu.Unlock()
	if stripes != objects {
		t.Fatalf("%d live stripes for %d objects", stripes, objects)
	}
}
