package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"trapquorum/client"
	"trapquorum/internal/erasure"
	"trapquorum/internal/nodeengine"
	"trapquorum/internal/trapezoid"
)

// corruptionLog captures the shards the system convicts, via the
// synchronous corruption handler.
type corruptionLog struct {
	mu     sync.Mutex
	shards map[int]int
}

func newCorruptionLog(sys *System) *corruptionLog {
	l := &corruptionLog{shards: make(map[int]int)}
	sys.SetCorruptionHandler(func(shard int) {
		l.mu.Lock()
		l.shards[shard]++
		l.mu.Unlock()
	})
	return l
}

func (l *corruptionLog) reports(shard int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.shards[shard]
}

// readAllBlocks reads every data block of the stripe and fails the
// test on any error or content mismatch — the core acceptance claim:
// whatever was injected, a read never returns corrupt data.
func (ts *testSystem) readAllBlocks(t testing.TB, stripe uint64, want [][]byte, when string) {
	t.Helper()
	for i := range want {
		got, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(stripe), i)
		if err != nil {
			t.Fatalf("%s: ReadBlock(%d, %d): %v", when, stripe, i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Fatalf("%s: ReadBlock(%d, %d) returned wrong bytes", when, stripe, i)
		}
	}
}

// TestReadBlockNeverServesEngineCorruption: each engine-level
// corruption mode (bit-flip, truncate, wrong-data-with-forged-meta) on
// a data shard must be detected on read, served from the survivors,
// and reported against the right shard.
func TestReadBlockNeverServesEngineCorruption(t *testing.T) {
	modes := []nodeengine.CorruptionMode{
		nodeengine.CorruptBitFlip,
		nodeengine.CorruptTruncate,
		nodeengine.CorruptWrongData,
	}
	for _, mode := range modes {
		t.Run(mode.String(), func(t *testing.T) {
			ts := fig3System(t, Options{})
			log := newCorruptionLog(ts.sys)
			const stripe, victim = 1, 2
			data := ts.seed(t, stripe, 64)

			engine := ts.shardNode(victim).Engine()
			if err := engine.CorruptChunk(context.Background(), chunkID(stripe, victim), mode); err != nil {
				t.Fatal(err)
			}

			ts.readAllBlocks(t, stripe, data, "after "+mode.String())
			if log.reports(victim) == 0 {
				t.Fatalf("%s on shard %d went unreported", mode, victim)
			}
			if m := ts.sys.Metrics(); m.CorruptShards == 0 {
				t.Fatal("CorruptShards metric stayed zero")
			}
		})
	}
}

// TestReadBlockSurvivesLyingDataNode: a Byzantine node whose engine
// metadata is immaculate but whose served bytes are silently altered.
// Only the cross-checksum records its peers hold can convict it — and
// they must, on the very first read.
func TestReadBlockSurvivesLyingDataNode(t *testing.T) {
	ts := fig3System(t, Options{})
	log := newCorruptionLog(ts.sys)
	const stripe, liar = 1, 3
	data := ts.seed(t, stripe, 64)

	ts.shardNode(liar).SetReadCorrupt(true)
	ts.readAllBlocks(t, stripe, data, "while lying")
	if log.reports(liar) == 0 {
		t.Fatalf("lying node %d was never convicted", liar)
	}

	// The stored bytes were never wrong: once the node stops lying, the
	// stripe audits clean with no repair at all.
	ts.shardNode(liar).SetReadCorrupt(false)
	rep, err := ts.sys.ScrubStripe(context.Background(), ts.stripe(stripe))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Healthy {
		t.Fatalf("scrub after the node stopped lying: %v", rep)
	}
}

// TestStripeReadSurvivesLyingDataNode: one stripe read over a lying
// data node on a b = 1 shape, where only the parity records can judge
// its bytes, serves the other blocks directly, decodes the liar's block
// alone and convicts the liar.
func TestStripeReadSurvivesLyingDataNode(t *testing.T) {
	ts := newTestSystem(t, 9, 6, trapezoid.Shape{A: 2, B: 1, H: 1}, 2, Options{})
	log := newCorruptionLog(ts.sys)
	const stripe, liar = 1, 4
	data := ts.seed(t, stripe, 64)

	ts.shardNode(liar).SetReadCorrupt(true)
	got, _, err := ts.sys.ReadStripe(context.Background(), ts.stripe(stripe), 0, len(data))
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(got[i], data[i]) {
			t.Fatalf("block %d: wrong bytes", i)
		}
	}
	if log.reports(liar) == 0 {
		t.Fatalf("lying node %d was never convicted", liar)
	}
	if m := ts.sys.Metrics(); m.DirectReads != int64(len(data)-1) || m.DecodeReads != 1 {
		t.Fatalf("direct reads %d, decode reads %d; want %d and 1", m.DirectReads, m.DecodeReads, len(data)-1)
	}
}

// TestOneNodeLevelWaitsForEveryParityRecord: on a b = 1 shape, a
// parity record that vouches for a lying data node's bytes must not be
// enough to serve them, however early it lands. The read waits for
// every parity record, and the honest plurality convicts the liar.
func TestOneNodeLevelWaitsForEveryParityRecord(t *testing.T) {
	ts := newTestSystem(t, 9, 6, trapezoid.Shape{A: 2, B: 1, H: 1}, 2, Options{})
	log := newCorruptionLog(ts.sys)
	ctx := context.Background()
	const stripe, liar, forger = 1, 2, 6
	data := ts.seed(t, stripe, 64)

	// The liar flips its first served byte; the forger's record for the
	// liar's block agrees with the flipped bytes.
	lie := append([]byte(nil), data[liar]...)
	lie[0] ^= 0xa5
	chunk, err := ts.shardNode(forger).ReadChunk(ctx, chunkID(stripe, forger))
	if err != nil {
		t.Fatal(err)
	}
	sums := append([]client.BlockSum(nil), chunk.Sums...)
	sums[liar].Sum = erasure.Sum64(lie)
	if err := ts.shardNode(forger).PutChunk(ctx, chunkID(stripe, forger), chunk.Data, chunk.Versions, sums...); err != nil {
		t.Fatal(err)
	}
	ts.shardNode(liar).SetReadCorrupt(true)
	for _, honest := range []int{7, 8} {
		ts.shardNode(honest).SetDelay(func(string) time.Duration { return 20 * time.Millisecond })
	}

	got, _, err := ts.sys.ReadBlock(ctx, ts.stripe(stripe), liar)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data[liar]) {
		t.Fatal("served the lying data node's bytes on one forged record")
	}
	if log.reports(liar) == 0 {
		t.Fatalf("lying node %d was never convicted", liar)
	}
}

// TestDecodeReadSurvivesCorruptSurvivor: the data node is down and
// most parity with it, so every decode draws from k+1 survivors that
// include a node serving wrong bytes. Whatever k-subset the fast path
// picks, the served block must be the true one — either the liar was
// skipped, or the record-majority check catches the bad decode and the
// verified re-decode routes around it.
func TestDecodeReadSurvivesCorruptSurvivor(t *testing.T) {
	for _, lying := range []bool{false, true} {
		name := "engine-corrupt-parity"
		if lying {
			name = "lying-parity"
		}
		t.Run(name, func(t *testing.T) {
			ts := fig3System(t, Options{})
			const stripe, block = 1, 0
			data := ts.seed(t, stripe, 64)

			// Survivors: data 1..7 plus parity shards 8 and 9 — any
			// decode uses 8 of these 9, so the corrupt parity 9 is in
			// most candidate sets.
			ts.shardNode(block).Crash()
			for p := 2; p < ts.code.N()-ts.code.K(); p++ {
				ts.shardNode(ts.parityShard(p)).Crash()
			}
			badParity := ts.parityShard(1)
			if lying {
				ts.shardNode(badParity).SetReadCorrupt(true)
			} else {
				err := ts.shardNode(badParity).Engine().CorruptChunk(
					context.Background(), chunkID(stripe, badParity), nodeengine.CorruptWrongData)
				if err != nil {
					t.Fatal(err)
				}
			}

			for i := 0; i < 30; i++ {
				got, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(stripe), block)
				if err != nil {
					t.Fatalf("decode read %d with a corrupt survivor: %v", i, err)
				}
				if !bytes.Equal(got, data[block]) {
					t.Fatalf("decode read %d returned corrupt bytes", i)
				}
			}
			if m := ts.sys.Metrics(); m.DecodeReads == 0 {
				t.Fatal("reads did not go through the decode path; the test exercised nothing")
			}
		})
	}
}

// TestReadFailsLoudWithoutHonestBasis: the version quorum still
// passes, but every reachable decode basis contains a shard serving
// wrong bytes (two corrupt parities, beyond the single-corruption
// guarantee). The only acceptable outcome is a corruption error —
// never the wrong bytes.
func TestReadFailsLoudWithoutHonestBasis(t *testing.T) {
	for _, lying := range []bool{false, true} {
		name := "engine-corrupt"
		if lying {
			name = "lying"
		}
		t.Run(name, func(t *testing.T) {
			ts := fig3System(t, Options{})
			const stripe, block = 1, 0
			ts.seed(t, stripe, 64)

			// Block 0's trapezoid keeps its level-0 read threshold
			// (parity 8 and 9 both answer versions), but the survivors
			// are data 1..7 plus those two parities — 9 shards for a
			// k = 8 decode, and both parities are corrupt, so every
			// basis of 8 contains a liar.
			ts.shardNode(block).Crash()
			for p := 2; p < ts.code.N()-ts.code.K(); p++ {
				ts.shardNode(ts.parityShard(p)).Crash()
			}
			for _, bad := range []int{ts.parityShard(0), ts.parityShard(1)} {
				if lying {
					ts.shardNode(bad).SetReadCorrupt(true)
				} else {
					err := ts.shardNode(bad).Engine().CorruptChunk(
						context.Background(), chunkID(stripe, bad), nodeengine.CorruptWrongData)
					if err != nil {
						t.Fatal(err)
					}
				}
			}

			_, _, err := ts.sys.ReadBlock(context.Background(), ts.stripe(stripe), block)
			if err == nil {
				t.Fatal("read served a block that cannot be decoded honestly")
			}
			if !errors.Is(err, client.ErrCorrupt) {
				t.Fatalf("read error %v does not carry client.ErrCorrupt", err)
			}
		})
	}
}

// TestScrubPinpointsWrongDataCulprits: consistently-forged shards
// (engine metadata matches the wrong bytes) on both sides of the code,
// found by a read-only scrub and healed by shard repair.
func TestScrubPinpointsWrongDataCulprits(t *testing.T) {
	ts := fig3System(t, Options{})
	const stripe = 1
	data := ts.seed(t, stripe, 64)
	badData, badParity := 5, ts.parityShard(2)
	for _, victim := range []int{badData, badParity} {
		err := ts.shardNode(victim).Engine().CorruptChunk(
			context.Background(), chunkID(stripe, victim), nodeengine.CorruptWrongData)
		if err != nil {
			t.Fatal(err)
		}
	}

	rep, err := ts.sys.ScrubStripe(context.Background(), ts.stripe(stripe))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Healthy {
		t.Fatalf("scrub missed two forged shards: %v", rep)
	}
	found := make(map[int]bool)
	for _, shard := range rep.CorruptShards {
		found[shard] = true
	}
	if !found[badData] {
		t.Fatalf("scrub %v did not convict forged data shard %d", rep, badData)
	}

	// Heal and re-audit. The data culprit is known from the first pass;
	// the parity culprit may only be pinpointable once the data side is
	// clean again, so repair from a fresh scrub until it reports healthy.
	for pass := 0; pass < 3; pass++ {
		for _, shard := range rep.CorruptShards {
			if err := ts.sys.RepairShard(context.Background(), ts.stripe(stripe), shard); err != nil {
				t.Fatalf("repair shard %d: %v", shard, err)
			}
		}
		if rep, err = ts.sys.ScrubStripe(context.Background(), ts.stripe(stripe)); err != nil {
			t.Fatal(err)
		}
		if rep.Healthy {
			break
		}
	}
	if !rep.Healthy {
		t.Fatalf("stripe still degraded after repairs: %v", rep)
	}
	ts.readAllBlocks(t, stripe, data, "after repair")
}

// TestStaleReplayIsStalenessNotCorruption: regressing a shard to a
// previously captured valid state (a restored backup) must read as
// staleness — old version, honest bytes — and never poison a read.
func TestStaleReplayIsStalenessNotCorruption(t *testing.T) {
	ts := fig3System(t, Options{})
	const stripe, victim = 1, 4
	data := ts.seed(t, stripe, 64)

	snap, err := ts.shardNode(victim).Engine().SnapshotChunk(context.Background(), chunkID(stripe, victim))
	if err != nil {
		t.Fatal(err)
	}
	fresh := bytes.Repeat([]byte{0xd1}, 64)
	if err := ts.sys.WriteBlock(context.Background(), ts.stripe(stripe), victim, fresh); err != nil {
		t.Fatal(err)
	}
	data[victim] = fresh
	if err := ts.shardNode(victim).Engine().RestoreChunk(context.Background(), snap); err != nil {
		t.Fatal(err)
	}

	ts.readAllBlocks(t, stripe, data, "after stale replay")
	rep, err := ts.sys.ScrubStripe(context.Background(), ts.stripe(stripe))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.CorruptShards) != 0 {
		t.Fatalf("stale replay misclassified as corruption: %v", rep)
	}
	if len(rep.StaleShards) != 1 || rep.StaleShards[0] != victim {
		t.Fatalf("scrub %v, want exactly shard %d stale", rep, victim)
	}
	if _, _, err := ts.sys.RepairStripe(context.Background(), ts.stripe(stripe)); err != nil {
		t.Fatal(err)
	}
	if rep, err = ts.sys.ScrubStripe(context.Background(), ts.stripe(stripe)); err != nil || !rep.Healthy {
		t.Fatalf("after repair: %v, %v", rep, err)
	}
}

// TestAnySingleCorruptShardRecovered is the differential property test
// of the issue's acceptance claim: for each published (n, k)
// configuration, flipping ANY single shard — every shard index, every
// corruption mode, Byzantine lying included — is always detected and
// recovered. Reads return true bytes throughout, the scrubber convicts
// the right shard, and after repair the stripe audits clean.
func TestAnySingleCorruptShardRecovered(t *testing.T) {
	configs := []struct {
		n, k  int
		shape trapezoid.Shape
		w     int
	}{
		{15, 8, trapezoid.Shape{A: 2, B: 3, H: 1}, 3},  // the paper's Figure-3 system
		{9, 6, trapezoid.Shape{A: 2, B: 1, H: 1}, 2},   // nbNodes = 9-6+1 = 4
		{20, 12, trapezoid.Shape{A: 3, B: 3, H: 1}, 3}, // nbNodes = 20-12+1 = 9
	}
	modes := []nodeengine.CorruptionMode{
		nodeengine.CorruptBitFlip,
		nodeengine.CorruptTruncate,
		nodeengine.CorruptWrongData,
	}
	const lyingMode = nodeengine.CorruptionMode(0) // sentinel: Byzantine serving, not stored rot

	for _, cfg := range configs {
		t.Run(fmt.Sprintf("n%d.k%d", cfg.n, cfg.k), func(t *testing.T) {
			ts := newTestSystem(t, cfg.n, cfg.k, cfg.shape, cfg.w, Options{})
			stripe := uint64(0)
			for _, mode := range append(append([]nodeengine.CorruptionMode(nil), modes...), lyingMode) {
				for victim := 0; victim < cfg.n; victim++ {
					stripe++
					data := ts.seed(t, stripe, 32)

					if mode == lyingMode {
						ts.shardNode(victim).SetReadCorrupt(true)
					} else {
						err := ts.shardNode(victim).Engine().CorruptChunk(
							context.Background(), chunkID(stripe, victim), mode)
						if err != nil {
							t.Fatalf("corrupt shard %d with %s: %v", victim, mode, err)
						}
					}
					when := fmt.Sprintf("mode=%v victim=%d", mode, victim)

					// 1. Reads never surface the corruption.
					ts.readAllBlocks(t, stripe, data, when)

					// 2. A read-only audit convicts the victim.
					rep, err := ts.sys.ScrubStripe(context.Background(), ts.stripe(stripe))
					if err != nil {
						t.Fatalf("%s: scrub: %v", when, err)
					}
					convicted := false
					for _, shard := range rep.CorruptShards {
						if shard == victim {
							convicted = true
						} else if mode != lyingMode {
							t.Fatalf("%s: scrub convicted innocent shard %d: %v", when, shard, rep)
						}
					}
					if !convicted {
						t.Fatalf("%s: scrub did not convict the victim: %v", when, rep)
					}

					// 3. Recovery: rebuild the shard (or stop the lying) and
					// the stripe audits clean again.
					if mode == lyingMode {
						ts.shardNode(victim).SetReadCorrupt(false)
					} else if err := ts.sys.RepairShard(context.Background(), ts.stripe(stripe), victim); err != nil {
						t.Fatalf("%s: repair: %v", when, err)
					}
					if rep, err = ts.sys.ScrubStripe(context.Background(), ts.stripe(stripe)); err != nil || !rep.Healthy {
						t.Fatalf("%s: audit after recovery: %v, %v", when, rep, err)
					}
					ts.readAllBlocks(t, stripe, data, when+" after recovery")
				}
			}
		})
	}
}
