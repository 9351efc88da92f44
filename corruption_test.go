package trapquorum_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"trapquorum"
	"trapquorum/client"
)

// corruptionModes cycles the harness's stored-rot flavours.
var corruptionModes = []trapquorum.CorruptionMode{
	trapquorum.CorruptBitFlip,
	trapquorum.CorruptTruncate,
	trapquorum.CorruptWrongData,
}

// TestChaosBitRotHealsUnderLoadSim is the sim half of the corruption
// acceptance e2e: bit-rot lands on k different nodes across k distinct
// stripes while foreground reads run, and the store returns to clean
// scrubs with zero manual repair calls — detection by verified reads
// and the scrubber, healing by the orchestrator.
func TestChaosBitRotHealsUnderLoadSim(t *testing.T) {
	ctx := context.Background()
	backend := trapquorum.NewSimBackend()
	store, err := trapquorum.OpenStore(ctx,
		trapquorum.WithBackend(backend),
		trapquorum.WithSelfHeal(healCfg(nil)),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	const k, objects = 8, 8
	rng := rand.New(rand.NewSource(23))
	payloads := make(map[uint64][]byte, objects)
	for id := uint64(1); id <= objects; id++ {
		data := make([]byte, 512*k)
		rng.Read(data)
		if err := store.WriteObject(ctx, id, data); err != nil {
			t.Fatal(err)
		}
		payloads[id] = data
	}

	// Foreground load: whole-object reads must return true bytes
	// through every stage of the rot-and-repair cycle.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var loadErr error
	var loadMu sync.Mutex
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := uint64(1 + (i+g)%objects)
				got, rerr := store.ReadObject(ctx, id)
				if rerr == nil && !bytes.Equal(got, payloads[id]) {
					rerr = errors.New("read returned corrupt bytes")
				}
				if rerr != nil {
					loadMu.Lock()
					if loadErr == nil {
						loadErr = fmt.Errorf("load read of object %d: %w", id, rerr)
					}
					loadMu.Unlock()
					return
				}
			}
		}(g)
	}

	// Rot on k distinct nodes, each hitting a different stripe: node j
	// loses shard j of stripe j+1, with the damage flavour cycling.
	for j := 0; j < k; j++ {
		id := client.ChunkID{Stripe: uint64(j + 1), Shard: j}
		mode := corruptionModes[j%len(corruptionModes)]
		if err := backend.CorruptShard(ctx, j, id, mode); err != nil {
			t.Fatalf("corrupt node %d (%s): %v", j, mode, err)
		}
	}

	waitHealthy(t, "every stripe scrubs clean with zero manual repairs", 60*time.Second, func() bool {
		for id := uint64(1); id <= objects; id++ {
			rep, err := store.ScrubStripe(ctx, id)
			if err != nil || !rep.Healthy {
				return false
			}
		}
		return true
	})
	waitHealthy(t, "every node released from the corruption pin", 30*time.Second, func() bool {
		h := store.Health()
		for _, n := range h.Nodes {
			if n.State != trapquorum.NodeUp {
				return false
			}
		}
		return h.RepairBacklog == 0
	})

	close(stop)
	wg.Wait()
	if loadErr != nil {
		t.Fatalf("foreground traffic failed during the rot: %v", loadErr)
	}
	m := store.Metrics()
	if m.CorruptShards == 0 {
		t.Fatal("no corruption observations recorded; the injection exercised nothing")
	}
	if m.CorruptReports == 0 || m.CorruptEvents == 0 {
		t.Fatalf("metrics %+v: corruption never reached the health plane", m)
	}
	if m.AutoRepairs == 0 {
		t.Fatal("no automatic repairs; the store cannot have healed itself")
	}
}

// TestLyingNodePinnedUnderChaos: a persistently Byzantine node — every
// byte it serves is silently wrong, every ping immaculate — must be
// convicted and held in NodeCorrupt across repair plans (each plan's
// completion meets fresh lying and re-arms the pin), while reads keep
// returning true bytes. When it reforms, the next quiet plan releases
// it with no operator involved.
func TestLyingNodePinnedUnderChaos(t *testing.T) {
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

	rng := rand.New(rand.NewSource(29))
	keys := []string{"a", "b", "c"}
	content := make(map[string][]byte, len(keys))
	for _, key := range keys {
		data := make([]byte, 2*512*8)
		rng.Read(data)
		if err := store.Put(ctx, key, data); err != nil {
			t.Fatal(err)
		}
		content[key] = data
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var loadErr error
	var loadMu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := keys[i%len(keys)]
			got, rerr := store.Get(ctx, key)
			if rerr == nil && !bytes.Equal(got, content[key]) {
				rerr = errors.New("get returned the liar's bytes")
			}
			if rerr != nil {
				loadMu.Lock()
				if loadErr == nil {
					loadErr = fmt.Errorf("load get %q: %w", key, rerr)
				}
				loadMu.Unlock()
				return
			}
		}
	}()

	const liar = 5
	backend.SetNodeLying(liar, true)

	waitHealthy(t, "liar pinned NodeCorrupt", 30*time.Second, func() bool {
		return store.Health().Nodes[liar].State == trapquorum.NodeCorrupt
	})
	// The pin must survive completed repair plans: wait until at least
	// one plan finished into fresh lying (a corrupt re-arm event beyond
	// the first) and confirm the node is still never paraded as Up.
	waitHealthy(t, "repair completion re-armed the pin", 30*time.Second, func() bool {
		return store.Metrics().CorruptEvents >= 2
	})
	if st := store.Health().Nodes[liar].State; st != trapquorum.NodeCorrupt && st != trapquorum.NodeDown {
		t.Fatalf("persistent liar surfaced as %v", st)
	}
	if reports := store.Health().Nodes[liar].CorruptReports; reports == 0 {
		t.Fatal("no corruption reports against the liar in the health snapshot")
	}

	// Reform: the stored bytes were always honest, so the node needs no
	// data movement — the next quiet plan releases the pin.
	backend.SetNodeLying(liar, false)
	waitHealthy(t, "reformed node released to NodeUp", 30*time.Second, func() bool {
		h := store.Health()
		return h.Nodes[liar].State == trapquorum.NodeUp && h.RepairBacklog == 0
	})
	waitHealthy(t, "stripes scrub clean after reform", 30*time.Second, func() bool {
		return allStripesHealthy(ctx, t, store, keys)
	})

	close(stop)
	wg.Wait()
	if loadErr != nil {
		t.Fatalf("a read surfaced the liar's bytes: %v", loadErr)
	}
}

// TestCorruptShardHarnessSurface pins the fault-injection API itself:
// stale-replay needs a prior snapshot, unknown modes and missing
// chunks are typed errors, and a replayed shard reads as stale — old
// honest bytes, never corruption.
func TestCorruptShardHarnessSurface(t *testing.T) {
	ctx := context.Background()
	backend := trapquorum.NewSimBackend()
	store, err := trapquorum.OpenStore(ctx, trapquorum.WithBackend(backend))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	payload := bytes.Repeat([]byte("replay me "), 400)
	if err := store.WriteObject(ctx, 1, payload); err != nil {
		t.Fatal(err)
	}
	const victim = 2
	id := client.ChunkID{Stripe: 1, Shard: victim}

	// Stale replay without a snapshot is a usage error, not a panic.
	err = backend.CorruptShard(ctx, victim, id, trapquorum.CorruptStaleReplay)
	if err == nil || !strings.Contains(err.Error(), "SnapshotShard") {
		t.Fatalf("stale-replay without snapshot: %v, want a snapshot-first error", err)
	}
	if err := backend.CorruptShard(ctx, victim, id, trapquorum.CorruptionMode(99)); !errors.Is(err, client.ErrBadRequest) {
		t.Fatalf("unknown mode: %v, want ErrBadRequest", err)
	}
	missing := client.ChunkID{Stripe: 77, Shard: victim}
	if err := backend.CorruptShard(ctx, victim, missing, trapquorum.CorruptBitFlip); !errors.Is(err, client.ErrNotFound) {
		t.Fatalf("corrupting a missing chunk: %v, want ErrNotFound", err)
	}

	// Snapshot, advance the block, replay the old state.
	if err := backend.SnapshotShard(ctx, victim, id); err != nil {
		t.Fatal(err)
	}
	blk, _, err := store.ReadBlock(ctx, 1, victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteBlock(ctx, 1, victim, bytes.Repeat([]byte{0xee}, len(blk))); err != nil {
		t.Fatal(err)
	}
	want, _, err := store.ReadBlock(ctx, 1, victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.CorruptShard(ctx, victim, id, trapquorum.CorruptStaleReplay); err != nil {
		t.Fatal(err)
	}

	// The read quorum routes around the regressed shard.
	got, _, err := store.ReadBlock(ctx, 1, victim)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stale replay surfaced old bytes through a quorum read")
	}
	rep, err := store.ScrubStripe(ctx, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CorruptShards) != 0 {
		t.Fatalf("stale replay misclassified as corruption: %v", rep)
	}
	if len(rep.StaleShards) != 1 || rep.StaleShards[0] != victim {
		t.Fatalf("scrub %v, want exactly shard %d stale", rep, victim)
	}
	if _, _, err := store.RepairStripe(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if rep, err = store.ScrubStripe(ctx, 1); err != nil || !rep.Healthy {
		t.Fatalf("after repair: %v, %v", rep, err)
	}

	// Mode names, for harness logs.
	for _, mode := range append(append([]trapquorum.CorruptionMode(nil), corruptionModes...), trapquorum.CorruptStaleReplay) {
		if s := mode.String(); s == "" || strings.Contains(s, "CorruptionMode") {
			t.Fatalf("mode %d renders as %q", int(mode), s)
		}
	}
}

// TestChaosColdBitRotTCPDiskstore is the network half of the
// corruption acceptance e2e: real bytes flipped in a chunk file on
// disk behind a live TCP daemon — rot on a chunk nobody is reading.
// The node's at-rest scan (the -scan-interval path) quarantines it,
// the cluster scrub finds the quarantined shard and the orchestrator
// heals it, all under foreground load with zero manual intervention.
func TestChaosColdBitRotTCPDiskstore(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP fleet e2e in -short mode")
	}
	ctx := context.Background()
	nodes := startFleet(t, 15)
	cfg := healCfg(nil)
	cfg.ProbeInterval = 10 * time.Millisecond
	store, err := trapquorum.Open(ctx,
		trapquorum.WithBackend(trapquorum.NewNetBackend(fleetAddrs(nodes))),
		trapquorum.WithBlockSize(512),
		trapquorum.WithSelfHeal(cfg),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	rng := rand.New(rand.NewSource(31))
	keys := []string{"cold-a", "cold-b"}
	content := make(map[string][]byte, len(keys))
	for _, key := range keys {
		data := make([]byte, 2*512*8)
		rng.Read(data)
		if err := store.Put(ctx, key, data); err != nil {
			t.Fatal(err)
		}
		content[key] = data
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var loadErr error
	var loadMu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := keys[i%len(keys)]
			got, rerr := store.Get(ctx, key)
			if rerr == nil && !bytes.Equal(got, content[key]) {
				rerr = errors.New("get returned rotten bytes")
			}
			if rerr != nil {
				loadMu.Lock()
				if loadErr == nil {
					loadErr = fmt.Errorf("load get %q: %w", key, rerr)
				}
				loadMu.Unlock()
				return
			}
		}
	}()

	// Flip bytes inside one chunk file behind the live daemon — the
	// operator-tool (tools/bitrot) failure, injected directly.
	const victim = 7
	// A chunk's file appears at a checkpoint; one at-rest scan tick runs
	// one, so the victim's chunks are on disk for the rot to hit.
	if _, err := nodes[victim].engine.VerifyStore(ctx); err != nil {
		t.Fatal(err)
	}
	chunkFiles, err := filepath.Glob(filepath.Join(nodes[victim].dir, "chunks", "*.chunk"))
	if err != nil || len(chunkFiles) == 0 {
		t.Fatalf("no chunk files on node %d (err %v)", victim, err)
	}
	target := chunkFiles[0]
	raw, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(target, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// The daemon still serves its clean in-memory mirror; only the
	// at-rest scan re-reads the disk. Run one scan tick by hand (the
	// trapnode daemon runs this on -scan-interval).
	quarantined, err := nodes[victim].engine.VerifyStore(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(quarantined) != 1 {
		t.Fatalf("at-rest scan quarantined %v, want exactly the rotten chunk", quarantined)
	}

	// From here on the cluster owns it: scrub classifies the
	// quarantined shard corrupt, the orchestrator rebuilds it (the
	// repair write replaces the file and lifts the quarantine).
	waitHealthy(t, "rot scrubbed out with zero manual repairs", 60*time.Second, func() bool {
		return allStripesHealthy(ctx, t, store, keys)
	})
	waitHealthy(t, "victim node released", 30*time.Second, func() bool {
		h := store.Health()
		return h.Nodes[victim].State == trapquorum.NodeUp && h.RepairBacklog == 0
	})
	requarantined, err := nodes[victim].engine.VerifyStore(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(requarantined) != 0 {
		t.Fatalf("chunks still quarantined after healing: %v", requarantined)
	}

	close(stop)
	wg.Wait()
	if loadErr != nil {
		t.Fatalf("foreground traffic failed during cold rot: %v", loadErr)
	}
	if m := store.Metrics(); m.CorruptShards == 0 || m.AutoRepairs == 0 {
		t.Fatalf("metrics %+v: want corruption observed and auto-repaired over TCP", m)
	}
}
