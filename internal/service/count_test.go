package service

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"trapquorum/internal/rpccount"
	"trapquorum/internal/sim"
	"trapquorum/internal/trapezoid"
	"trapquorum/placement"
)

// align64 rounds up to the right-sized block granularity.
func align64(x int) int { return (x + 63) / 64 * 64 }

// TestServiceCountTable pins what the object operations cost in node
// RPCs by kind, in rounds and in stored chunk payload bytes, on the
// (9,6) a=2 b=1 h=1 w=2 store and on the paper's Figure-3 (15,8) one,
// both with 4 KiB blocks over exactly n nodes. Every expected value is
// a formula in n, k, the block size BS and the object size: a stripe
// holding r < k·BS bytes stores n chunks of align64(⌈r/k⌉) bytes (eq.
// 15's n/k, up to the 64-byte alignment), a WriteAt costs two rounds
// per block it touches, aligned or not, and a PutReader of s stripes
// seeds them seedWindow (W) at a time: ⌈s/W⌉ rounds, each stripe's n
// PutChunks in the wave of its window. A node repair reads n−1
// survivors and installs one chunk per stripe the fleet holds, whoever
// placed it — the one path both root stores repair through — and a
// scrub reads every shard of each of the object's stripes in turn.
// Run with -v to print the table.
func TestServiceCountTable(t *testing.T) {
	const bs = 4096
	ctx := context.Background()
	configs := []struct {
		n, k  int
		shape trapezoid.Shape
		w     int
	}{
		{9, 6, trapezoid.Shape{A: 2, B: 1, H: 1}, 2},
		{15, 8, trapezoid.Shape{A: 2, B: 3, H: 1}, 3},
	}
	for _, cfg := range configs {
		n, k := cfg.n, cfg.k
		cluster, err := sim.NewCluster(n)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cluster.Close)
		strat, err := placement.NewRoundRobin(n)
		if err != nil {
			t.Fatal(err)
		}
		nodes, log := rpccount.Wrap(clientsOf(cluster))
		store, err := New(nodes, Config{N: n, K: k, Shape: cfg.shape, W: cfg.w, BlockSize: bs, Placement: strat})
		if err != nil {
			t.Fatal(err)
		}

		// small is a one-stripe object (churn-small's 16 KiB); big is
		// s = 3 stripes, the last holding r bytes.
		const small = 16 << 10
		const s, r = 3, 1000
		big := (s-1)*k*bs + r
		smallBS, tailBS := align64((small+k-1)/k), align64((r+k-1)/k)
		oracle := map[string][]byte{"small": streamPattern(small), "big": streamPattern(big)}
		// blocksRead is how many of a stripe holding x bytes in blocks
		// of b bytes a whole-object read asks for.
		blocksRead := func(x, b int) int { return (x + b - 1) / b }
		// stripes is how many stripes the fleet holds once both objects
		// are stored.
		const stripes = 1 + s

		rows := []struct {
			name   string
			op     func() error
			rpcs   rpccount.Counts
			rounds int
			merge  bool // waves may overlap: 1..rounds
			stored int  // chunk payload bytes PutChunk carried
		}{
			{
				name:   "Put, one stripe",
				op:     func() error { return store.Put(ctx, "small", oracle["small"]) },
				rpcs:   rpccount.Counts{rpccount.PutChunk: n},
				rounds: 1, stored: n * smallBS,
			},
			{
				// The stripes are read while the window seeds: with
				// s ≤ W every seed of the object is one wave.
				name: "PutReader, 3 stripes",
				op: func() error {
					return store.PutReader(ctx, "big", bytes.NewReader(oracle["big"]), big)
				},
				rpcs:   rpccount.Counts{rpccount.PutChunk: s * n},
				rounds: (s + seedWindow - 1) / seedWindow, stored: (s-1)*n*bs + n*tailBS,
			},
			{
				name:   "Get, one stripe",
				op:     getChecked(ctx, store, "small", oracle),
				rpcs:   rpccount.Counts{rpccount.ReadChunk: blocksRead(small, smallBS), rpccount.ReadVersions: n - k},
				rounds: 1,
			},
			{
				// One stripe read per stripe, the next one in flight
				// while the current is handed out.
				name: "Get, 3 stripes",
				op:   getChecked(ctx, store, "big", oracle),
				rpcs: rpccount.Counts{
					rpccount.ReadChunk:    (s-1)*k + blocksRead(r, tailBS),
					rpccount.ReadVersions: s * (n - k),
				},
				rounds: s,
			},
			{
				// A whole block of a full stripe: Algorithm 1's line-15
				// read, then every position's update.
				name:   "WriteAt, aligned block",
				op:     writeAtChecked(ctx, store, "big", oracle, k*bs+bs, bs),
				rpcs:   rpccount.Counts{rpccount.ReadChunk: 1, rpccount.ReadVersions: n - k, rpccount.PutChunk: 1, rpccount.CompareAndAdd: n - k},
				rounds: 2, stored: bs,
			},
			{
				// The patch happens under the block lock, on the bytes
				// the line-15 read returned: no read of its own.
				name:   "WriteAt, unaligned in the last stripe",
				op:     writeAtChecked(ctx, store, "small", oracle, smallBS+5, 100),
				rpcs:   rpccount.Counts{rpccount.ReadChunk: 1, rpccount.ReadVersions: n - k, rpccount.PutChunk: 1, rpccount.CompareAndAdd: n - k},
				rounds: 2, stored: smallBS,
			},
			{
				name:   "WriteAt, across a block boundary of the last stripe",
				op:     writeAtChecked(ctx, store, "big", oracle, (s-1)*k*bs+tailBS-10, 20),
				rpcs:   rpccount.Counts{rpccount.ReadChunk: 2, rpccount.ReadVersions: 2 * (n - k), rpccount.PutChunk: 2, rpccount.CompareAndAdd: 2 * (n - k)},
				rounds: 4, stored: 2 * tailBS,
			},
			{
				// After the writes: the stream sees every patched byte.
				name: "GetWriter, 3 stripes",
				op:   getWriterChecked(ctx, store, "big", oracle),
				rpcs: rpccount.Counts{
					rpccount.ReadChunk:    (s-1)*k + blocksRead(r, tailBS),
					rpccount.ReadVersions: s * (n - k),
				},
				rounds: s,
			},
			{
				// The last block of stripe 0 and the first of stripe 1:
				// one stripe read each, one after the other.
				name:   "ReadAt, across two stripes",
				op:     readAtChecked(ctx, store, "big", oracle, k*bs-100, 200),
				rpcs:   rpccount.Counts{rpccount.ReadChunk: 2, rpccount.ReadVersions: 2 * (n - k)},
				rounds: 2,
			},
			{
				// Node 0 loses its disk and is rebuilt: one chunk per
				// live stripe (the small object's and the big one's),
				// every stripe at once. Each stripe reads its n−1
				// survivors, then installs the chunk by a version-guarded
				// put (counted as other, its bytes not as stored). One
				// stripe's install may start while another's survivors
				// are still being read, merging the two waves.
				name: "RepairClusterNode, one wiped node",
				op: func() error {
					if err := cluster.Node(0).Wipe(ctx); err != nil {
						return err
					}
					rebuilt, err := store.Fleet().RepairClusterNode(ctx, 0)
					if err == nil && rebuilt != stripes {
						err = fmt.Errorf("rebuilt %d chunks, want %d", rebuilt, stripes)
					}
					return err
				},
				rpcs:   rpccount.Counts{rpccount.ReadChunk: stripes * (n - 1), rpccount.Other: stripes},
				rounds: 2, merge: true,
			},
			{
				// The object's stripes one after the other, each read
				// whole from every node — and healthy after the repair.
				name: "Scrub, 3 stripes",
				op: func() error {
					reps, err := store.Scrub(ctx, "big")
					if err == nil && len(reps) != s {
						err = fmt.Errorf("%d reports, want %d", len(reps), s)
					}
					for _, rep := range reps {
						if err == nil && !rep.Healthy {
							err = fmt.Errorf("stripe %d unhealthy after repair: %+v", rep.Stripe, rep)
						}
					}
					return err
				},
				rpcs:   rpccount.Counts{rpccount.ReadChunk: s * n},
				rounds: s,
			},
			{
				name:   "Delete, one stripe",
				op:     func() error { return store.Delete(ctx, "small") },
				rpcs:   rpccount.Counts{rpccount.DeleteChunk: n},
				rounds: 1,
			},
			{
				// Every stripe's chunks are dropped in one fan-out.
				name:   "Delete, 3 stripes",
				op:     func() error { return store.Delete(ctx, "big") },
				rpcs:   rpccount.Counts{rpccount.DeleteChunk: s * n},
				rounds: 1,
			},
		}
		for _, row := range rows {
			t.Run(fmt.Sprintf("n%d.k%d/%s", n, k, row.name), func(t *testing.T) {
				log.Reset()
				if err := row.op(); err != nil {
					t.Fatal(err)
				}
				got, rounds, stored := log.Total(), log.Rounds(), log.PutBytes()
				t.Logf("%-52s rounds %d  stored %6d B  %v", row.name, rounds, stored, got)
				if got != row.rpcs {
					t.Errorf("RPCs %v, want %v", got, row.rpcs)
				}
				if rounds != row.rounds && !(row.merge && rounds >= 1 && rounds < row.rounds) {
					t.Errorf("rounds = %d, want %d", rounds, row.rounds)
				}
				if stored != row.stored {
					t.Errorf("stored %d payload bytes, want %d", stored, row.stored)
				}
			})
		}
	}
}

// getChecked is a count-table op: Get, checked against the oracle.
func getChecked(ctx context.Context, store *Store, key string, oracle map[string][]byte) func() error {
	return func() error {
		got, err := store.Get(ctx, key)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, oracle[key]) {
			return fmt.Errorf("get %q: bytes differ from the oracle", key)
		}
		return nil
	}
}

// getWriterChecked is a count-table op: GetWriter, checked against the
// oracle.
func getWriterChecked(ctx context.Context, store *Store, key string, oracle map[string][]byte) func() error {
	return func() error {
		var got bytes.Buffer
		if _, err := store.GetWriter(ctx, key, &got); err != nil {
			return err
		}
		if !bytes.Equal(got.Bytes(), oracle[key]) {
			return fmt.Errorf("GetWriter %q: bytes differ from the oracle", key)
		}
		return nil
	}
}

// readAtChecked is a count-table op: ReadAt of length bytes at offset,
// checked against the oracle.
func readAtChecked(ctx context.Context, store *Store, key string, oracle map[string][]byte, offset, length int) func() error {
	return func() error {
		got, err := store.ReadAt(ctx, key, offset, length)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, oracle[key][offset:offset+length]) {
			return fmt.Errorf("ReadAt %q [%d,%d): bytes differ from the oracle", key, offset, offset+length)
		}
		return nil
	}
}

// writeAtChecked is a count-table op: WriteAt of length fresh bytes at
// offset, applied to the oracle too.
func writeAtChecked(ctx context.Context, store *Store, key string, oracle map[string][]byte, offset, length int) func() error {
	return func() error {
		p := bytes.Repeat([]byte{0xa5}, length)
		if err := store.WriteAt(ctx, key, offset, p); err != nil {
			return err
		}
		copy(oracle[key][offset:], p)
		return nil
	}
}
