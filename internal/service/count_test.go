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
// 15's n/k, up to the 64-byte alignment), and a WriteAt costs two
// rounds per block it touches, aligned or not. Run with -v to print
// the table.
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

		rows := []struct {
			name   string
			op     func() error
			rpcs   rpccount.Counts
			rounds int
			stored int // chunk payload bytes PutChunk carried
		}{
			{
				name:   "Put, one stripe",
				op:     func() error { return store.Put(ctx, "small", oracle["small"]) },
				rpcs:   rpccount.Counts{rpccount.PutChunk: n},
				rounds: 1, stored: n * smallBS,
			},
			{
				// Seeds are pipelined behind the reads, one stripe at a time.
				name: "PutReader, 3 stripes",
				op: func() error {
					return store.PutReader(ctx, "big", bytes.NewReader(oracle["big"]), big)
				},
				rpcs:   rpccount.Counts{rpccount.PutChunk: s * n},
				rounds: s, stored: (s-1)*n*bs + n*tailBS,
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
				name:   "Delete, one stripe",
				op:     func() error { return store.Delete(ctx, "small") },
				rpcs:   rpccount.Counts{rpccount.DeleteChunk: n},
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
				if rounds != row.rounds {
					t.Errorf("rounds = %d, want %d", rounds, row.rounds)
				}
				if stored != row.stored {
					t.Errorf("stored %d payload bytes, want %d", stored, row.stored)
				}
			})
		}
		if err := getChecked(ctx, store, "big", oracle)(); err != nil {
			t.Fatalf("after the writes: %v", err)
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
