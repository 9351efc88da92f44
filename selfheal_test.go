package trapquorum_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"trapquorum"
)

// healCfg is the aggressive tuning the self-heal tests run with:
// probes every few milliseconds, scrubs every few tens, so the whole
// detect→repair→verify cycle fits a test budget.
func healCfg(onTransition func(trapquorum.NodeTransition)) trapquorum.SelfHeal {
	return trapquorum.SelfHeal{
		ProbeInterval:      3 * time.Millisecond,
		SuspicionThreshold: 2,
		RepairConcurrency:  4,
		RepairRetry:        20 * time.Millisecond,
		ScrubInterval:      30 * time.Millisecond,
		ScrubPace:          time.Millisecond,
		OnTransition:       onTransition,
	}
}

// waitHealthy polls until cond holds or the deadline passes.
func waitHealthy(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// allStripesHealthy scrubs every key read-only and reports whether
// every stripe is fully redundant again.
func allStripesHealthy(ctx context.Context, t *testing.T, store *trapquorum.ObjectStore, keys []string) bool {
	t.Helper()
	for _, key := range keys {
		reports, err := store.Scrub(ctx, key)
		if err != nil {
			return false
		}
		for _, r := range reports {
			if !r.Healthy {
				return false
			}
		}
	}
	return true
}

// TestSelfHealSimCrashWipeUnderLoad is the sim half of the issue's
// acceptance e2e: a node crashes and loses its disk under foreground
// traffic, and the store returns to full redundancy with zero manual
// RepairNode calls.
func TestSelfHealSimCrashWipeUnderLoad(t *testing.T) {
	ctx := context.Background()
	backend := trapquorum.NewSimBackend()
	store, err := trapquorum.Open(ctx,
		trapquorum.WithBackend(backend),
		trapquorum.WithBlockSize(512),
		trapquorum.WithSelfHeal(healCfg(nil)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	rng := rand.New(rand.NewSource(7))
	var keys []string
	for i := 0; i < 4; i++ {
		key := fmt.Sprintf("obj-%d", i)
		data := make([]byte, 3*512*8) // 3 stripes at (15,8), 512 B blocks
		rng.Read(data)
		if err := store.Put(ctx, key, data); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}

	// Foreground load: reads and in-place patches while the fault and
	// the healing run. One node down never blocks the quorum, so the
	// operations must keep succeeding throughout.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var loadErr error
	var loadMu sync.Mutex
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			patch := make([]byte, 512)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := keys[i%len(keys)]
				var opErr error
				if i%2 == 0 {
					_, opErr = store.Get(ctx, key)
				} else {
					r.Read(patch)
					opErr = store.WriteAt(ctx, key, (i%3)*512*8, patch)
				}
				if opErr != nil {
					loadMu.Lock()
					if loadErr == nil {
						loadErr = fmt.Errorf("load op %d on %s: %w", i, key, opErr)
					}
					loadMu.Unlock()
					return
				}
			}
		}(g)
	}

	const victim = 4
	if err := store.CrashNode(victim); err != nil {
		t.Fatal(err)
	}
	waitHealthy(t, "monitor marks the crashed node down", 10*time.Second, func() bool {
		return store.Health().Nodes[victim].State == trapquorum.NodeDown
	})

	// The node returns with a replaced (empty) disk.
	if err := store.RestartNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := store.WipeNode(ctx, victim); err != nil {
		t.Fatal(err)
	}

	waitHealthy(t, "orchestrator heals the node", 30*time.Second, func() bool {
		h := store.Health()
		return h.Nodes[victim].State == trapquorum.NodeUp && h.RepairBacklog == 0
	})
	waitHealthy(t, "every stripe fully redundant again", 30*time.Second, func() bool {
		return allStripesHealthy(ctx, t, store, keys)
	})

	close(stop)
	wg.Wait()
	if loadErr != nil {
		t.Fatalf("foreground traffic failed during the outage: %v", loadErr)
	}

	m := store.Metrics()
	if m.DownEvents < 1 || m.Recoveries < 1 {
		t.Fatalf("metrics %+v: want at least one down event and one recovery", m)
	}
	if m.AutoRepairs == 0 {
		t.Fatal("no automatic repairs recorded; the node cannot have been healed by the orchestrator")
	}
	if h := store.Health(); !h.Enabled || len(h.Degraded()) != 0 {
		t.Fatalf("health %+v: want enabled and no degraded nodes", h)
	}
}

// TestSelfHealLowLevelStore exercises the low-level store's stripe
// table as repair target: the single-stripe-set Store heals a
// crashed-and-wiped node too.
func TestSelfHealLowLevelStore(t *testing.T) {
	ctx := context.Background()
	store, err := trapquorum.OpenStore(ctx,
		trapquorum.WithSelfHeal(healCfg(nil)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	payload := bytes.Repeat([]byte("low level self heal "), 200)
	for id := uint64(1); id <= 3; id++ {
		if err := store.WriteObject(ctx, id, payload); err != nil {
			t.Fatal(err)
		}
	}

	const victim = 11
	if err := store.CrashNode(victim); err != nil {
		t.Fatal(err)
	}
	waitHealthy(t, "node down", 10*time.Second, func() bool {
		return store.Health().Nodes[victim].State == trapquorum.NodeDown
	})
	if err := store.RestartNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := store.WipeNode(ctx, victim); err != nil {
		t.Fatal(err)
	}
	waitHealthy(t, "node healed", 30*time.Second, func() bool {
		h := store.Health()
		return h.Nodes[victim].State == trapquorum.NodeUp && h.RepairBacklog == 0
	})
	waitHealthy(t, "stripes healthy", 30*time.Second, func() bool {
		for id := uint64(1); id <= 3; id++ {
			rep, err := store.ScrubStripe(ctx, id)
			if err != nil || !rep.Healthy {
				return false
			}
		}
		return true
	})
	if m := store.Metrics(); m.AutoRepairs == 0 || m.Recoveries == 0 {
		t.Fatalf("metrics %+v: want automatic repairs and a recovery", m)
	}
}

// TestSelfHealTransitionsObserved pins the state-machine path the
// operator sees: up → suspect → down → repairing → up.
func TestSelfHealTransitionsObserved(t *testing.T) {
	ctx := context.Background()
	var mu sync.Mutex
	var path []trapquorum.NodeState
	const victim = 2
	store, err := trapquorum.Open(ctx,
		trapquorum.WithBlockSize(256),
		trapquorum.WithSelfHeal(healCfg(func(tr trapquorum.NodeTransition) {
			if tr.Node == victim {
				mu.Lock()
				path = append(path, tr.To)
				mu.Unlock()
			}
		})),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if err := store.Put(ctx, "k", bytes.Repeat([]byte("x"), 2048)); err != nil {
		t.Fatal(err)
	}

	if err := store.CrashNode(victim); err != nil {
		t.Fatal(err)
	}
	waitHealthy(t, "down", 10*time.Second, func() bool {
		return store.Health().Nodes[victim].State == trapquorum.NodeDown
	})
	if err := store.RestartNode(victim); err != nil {
		t.Fatal(err)
	}
	waitHealthy(t, "healed", 30*time.Second, func() bool {
		return store.Health().Nodes[victim].State == trapquorum.NodeUp
	})
	// The observer is dispatched asynchronously; wait for the full
	// path to arrive before asserting on it.
	waitHealthy(t, "transition path observed", 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(path) >= 4
	})

	mu.Lock()
	got := append([]trapquorum.NodeState(nil), path...)
	mu.Unlock()
	want := []trapquorum.NodeState{
		trapquorum.NodeSuspect, trapquorum.NodeDown,
		trapquorum.NodeRepairing, trapquorum.NodeUp,
	}
	if len(got) < len(want) {
		t.Fatalf("transitions %v, want at least %v", got, want)
	}
	for i, w := range want {
		if got[i] != w {
			t.Fatalf("transition %d is %v, want %v (full path %v)", i, got[i], w, got)
		}
	}
}

// TestSelfHealRequiresProbingBackend pins the typed refusal on
// backends without a liveness probe.
func TestSelfHealRequiresProbingBackend(t *testing.T) {
	ctx := context.Background()
	_, err := trapquorum.Open(ctx,
		trapquorum.WithBackend(&stubBackend{}),
		trapquorum.WithSelfHeal(trapquorum.SelfHeal{}),
	)
	if !errors.Is(err, trapquorum.ErrNotSupported) {
		t.Fatalf("Open with a non-probing backend: %v, want ErrNotSupported", err)
	}
}

// TestSelfHealConfigValidation pins option validation.
func TestSelfHealConfigValidation(t *testing.T) {
	ctx := context.Background()
	bad := []trapquorum.SelfHeal{
		{ProbeInterval: -time.Second},
		{SuspicionThreshold: -1},
		{ScrubJitter: 1.5},
	}
	for _, sh := range bad {
		if _, err := trapquorum.Open(ctx, trapquorum.WithSelfHeal(sh)); err == nil {
			t.Fatalf("WithSelfHeal(%+v) accepted", sh)
		}
	}
}

// TestHealthDisabledWithoutSelfHeal: stores opened without the option
// report a zero snapshot and zero self-heal counters.
func TestHealthDisabledWithoutSelfHeal(t *testing.T) {
	ctx := context.Background()
	store, err := trapquorum.Open(ctx, trapquorum.WithBlockSize(256))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if h := store.Health(); h.Enabled || h.Nodes != nil {
		t.Fatalf("health on a plain store: %+v, want zero report", h)
	}
	if m := store.Metrics(); m.Probes != 0 || m.AutoRepairs != 0 || m.ScrubPasses != 0 {
		t.Fatalf("self-heal counters non-zero on a plain store: %+v", m)
	}
}

// TestMetricsMonotoneUnderConcurrentRepairsAndScrubs samples Metrics
// from several goroutines while faults, automatic repairs and scrubs
// all run, asserting every counter is monotone (run under -race in
// CI: this is the accounting's data-race canary too).
func TestMetricsMonotoneUnderConcurrentRepairsAndScrubs(t *testing.T) {
	ctx := context.Background()
	store, err := trapquorum.Open(ctx,
		trapquorum.WithBlockSize(256),
		trapquorum.WithSelfHeal(healCfg(nil)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for i := 0; i < 3; i++ {
		if err := store.Put(ctx, fmt.Sprintf("k%d", i), bytes.Repeat([]byte("y"), 4096)); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	monotone := func(prev, cur *trapquorum.Metrics) error {
		type pair struct {
			name      string
			old, new_ int64
		}
		checks := []pair{
			{"Writes", prev.Writes, cur.Writes},
			{"DirectReads", prev.DirectReads, cur.DirectReads},
			{"DecodeReads", prev.DecodeReads, cur.DecodeReads},
			{"Repairs", prev.Repairs, cur.Repairs},
			{"Probes", prev.Probes, cur.Probes},
			{"ProbeFailures", prev.ProbeFailures, cur.ProbeFailures},
			{"Suspicions", prev.Suspicions, cur.Suspicions},
			{"DownEvents", prev.DownEvents, cur.DownEvents},
			{"Recoveries", prev.Recoveries, cur.Recoveries},
			{"AutoRepairs", prev.AutoRepairs, cur.AutoRepairs},
			{"AutoRepairFailures", prev.AutoRepairFailures, cur.AutoRepairFailures},
			{"ScrubPasses", prev.ScrubPasses, cur.ScrubPasses},
			{"ScrubStripes", prev.ScrubStripes, cur.ScrubStripes},
			{"ScrubDegraded", prev.ScrubDegraded, cur.ScrubDegraded},
		}
		for _, c := range checks {
			if c.new_ < c.old {
				return fmt.Errorf("%s regressed: %d -> %d", c.name, c.old, c.new_)
			}
		}
		return nil
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev trapquorum.Metrics
			for {
				select {
				case <-stop:
					return
				default:
				}
				cur := store.Metrics()
				if err := monotone(&prev, &cur); err != nil {
					t.Error(err)
					return
				}
				prev = cur
				store.Health()
			}
		}()
	}
	// Fault churn: crash/restart/wipe nodes while readers sample.
	for i := 0; i < 6; i++ {
		victim := 1 + i%3
		if err := store.CrashNode(victim); err != nil {
			t.Fatal(err)
		}
		time.Sleep(15 * time.Millisecond)
		if err := store.RestartNode(victim); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			_ = store.WipeNode(ctx, victim) // may race a probe; healing absorbs it
		}
		time.Sleep(25 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestSelfHealTCPCrashWipeUnderLoad is the network half of the
// acceptance e2e: the same crash-and-replace-the-disk cycle over real
// TCP sockets against durable diskstore daemons, healed with zero
// manual RepairNode calls.
func TestSelfHealTCPCrashWipeUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP fleet e2e in -short mode")
	}
	ctx := context.Background()
	nodes := startFleet(t, 15)
	addrs := make([]string, len(nodes))
	for i, nd := range nodes {
		addrs[i] = nd.addr
	}
	cfg := healCfg(nil)
	cfg.ProbeInterval = 10 * time.Millisecond
	store, err := trapquorum.Open(ctx,
		trapquorum.WithBackend(trapquorum.NewNetBackend(addrs)),
		trapquorum.WithBlockSize(512),
		trapquorum.WithSelfHeal(cfg),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	rng := rand.New(rand.NewSource(11))
	keys := []string{"vol-a", "vol-b"}
	for _, key := range keys {
		data := make([]byte, 2*512*8)
		rng.Read(data)
		if err := store.Put(ctx, key, data); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var loadErr error
	var loadMu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		patch := make([]byte, 512)
		r := rand.New(rand.NewSource(13))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := keys[i%len(keys)]
			var opErr error
			if i%2 == 0 {
				_, opErr = store.Get(ctx, key)
			} else {
				r.Read(patch)
				opErr = store.WriteAt(ctx, key, (i%2)*512*8, patch)
			}
			if opErr != nil {
				loadMu.Lock()
				if loadErr == nil {
					loadErr = fmt.Errorf("load op %d: %w", i, opErr)
				}
				loadMu.Unlock()
				return
			}
		}
	}()

	// Kill the daemon, throw its disk away, restart it empty: the
	// full disk-replacement runbook, with nobody calling RepairNode.
	const victim = 6
	nodes[victim].crash()
	waitHealthy(t, "monitor marks the dead daemon down", 15*time.Second, func() bool {
		return store.Health().Nodes[victim].State == trapquorum.NodeDown
	})
	if err := os.RemoveAll(nodes[victim].dir); err != nil {
		t.Fatal(err)
	}
	nodes[victim].start()

	waitHealthy(t, "orchestrator heals the replaced disk", 60*time.Second, func() bool {
		h := store.Health()
		return h.Nodes[victim].State == trapquorum.NodeUp && h.RepairBacklog == 0
	})
	waitHealthy(t, "every stripe fully redundant", 60*time.Second, func() bool {
		return allStripesHealthy(ctx, t, store, keys)
	})

	close(stop)
	wg.Wait()
	if loadErr != nil {
		t.Fatalf("foreground traffic failed during the outage: %v", loadErr)
	}
	if m := store.Metrics(); m.AutoRepairs == 0 || m.Recoveries == 0 {
		t.Fatalf("metrics %+v: want automatic repairs and a recovery over TCP", m)
	}
}
