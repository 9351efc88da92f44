package service

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"trapquorum/client"
	"trapquorum/internal/sim"
	"trapquorum/internal/trapezoid"
	"trapquorum/placement"
)

// newGeometryStore builds a store over a 30-node simulated cluster with
// ring placement, on the given code, trapezoid and block size.
func newGeometryStore(t *testing.T, n, k int, shape trapezoid.Shape, w, blockSize int) *Store {
	t.Helper()
	cluster, err := sim.NewCluster(testClusterSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	strat, err := placement.NewRing(testClusterSize, 16)
	if err != nil {
		t.Fatal(err)
	}
	store, err := New(clientsOf(cluster), Config{N: n, K: k, Shape: shape, W: w, BlockSize: blockSize, Placement: strat})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestTailStripeDifferential checks objects of every size class around
// the stripe and block bounds against an in-memory oracle: the shape of
// each stripe (full stripes at BlockSize, the last right-sized to
// align64(⌈r/k⌉) but never above BlockSize), the chunk each node
// stores, and every read and write path — Put and PutReader,
// Get and GetWriter, ReadAt and WriteAt at ranges straddling the block
// bounds of the last stripe. One geometry has a block size that is a
// multiple of 64, the other one that is not, so the cap at BlockSize
// is exercised too.
func TestTailStripeDifferential(t *testing.T) {
	ctx := context.Background()
	for _, g := range []struct {
		n, k  int
		shape trapezoid.Shape
		w, bs int
	}{
		{9, 6, trapezoid.Shape{A: 2, B: 1, H: 1}, 2, 1024},
		{15, 8, trapezoid.Shape{A: 2, B: 3, H: 1}, 3, 200},
	} {
		n, k, bs := g.n, g.k, g.bs
		t.Run(fmt.Sprintf("n%d.k%d.bs%d", n, k, bs), func(t *testing.T) {
			store := newGeometryStore(t, n, k, g.shape, g.w, bs)
			rng := rand.New(rand.NewSource(int64(bs)))
			for i, size := range []int{0, 1, 63, 64, 6*64 + 1, k*bs - 1, k * bs, k*bs + 1, 2*k*bs + 17} {
				key := fmt.Sprintf("obj-%d", size)
				want := streamPattern(size)
				var err error
				if i%2 == 0 {
					err = store.Put(ctx, key, want)
				} else {
					err = store.PutReader(ctx, key, bytes.NewReader(want), size)
				}
				if err != nil {
					t.Fatalf("put %d bytes: %v", size, err)
				}

				// Shape: every stripe but the last is full; the last is
				// right-sized, and each of its n chunks holds one block.
				stripes, _ := store.StripesOf(key)
				span := k * bs
				if wantStripes := max(1, (size+span-1)/span); len(stripes) != wantStripes {
					t.Fatalf("size %d: %d stripes, want %d", size, len(stripes), wantStripes)
				}
				tail := size - (len(stripes)-1)*span
				tailBS := min(bs, align64(max(1, (tail+k-1)/k)))
				for s, id := range stripes {
					p, _ := store.fleet.stripe(id)
					wantBS := bs
					if s == len(stripes)-1 {
						wantBS = tailBS
					}
					if p.BlockSize != wantBS {
						t.Fatalf("size %d stripe %d: block size %d, want %d", size, s, p.BlockSize, wantBS)
					}
					for shard, node := range p.Nodes {
						c, err := store.fleet.nodes[node].ReadChunk(ctx, client.ChunkID{Stripe: id, Shard: shard})
						if err != nil || len(c.Data) != wantBS {
							t.Fatalf("size %d stripe %d shard %d: %d-byte chunk, %v; want %d bytes", size, s, shard, len(c.Data), err, wantBS)
						}
					}
				}
				checkObject(t, store, key, want)

				// Ranges around each block bound of the last stripe,
				// then random ones anywhere in the object.
				if size == 0 {
					continue
				}
				base := (len(stripes) - 1) * span
				var ranges [][2]int
				for b := 1; b < k && base+b*tailBS < size; b++ {
					off := max(0, base+b*tailBS-5)
					ranges = append(ranges, [2]int{off, min(11, size-off)})
				}
				for range 4 {
					off := rng.Intn(size)
					ranges = append(ranges, [2]int{off, 1 + rng.Intn(min(size-off, 3*bs))})
				}
				for _, r := range ranges {
					off, length := r[0], r[1]
					patch := make([]byte, length)
					rng.Read(patch)
					if err := store.WriteAt(ctx, key, off, patch); err != nil {
						t.Fatalf("size %d: WriteAt [%d,%d): %v", size, off, off+length, err)
					}
					copy(want[off:], patch)
					got, err := store.ReadAt(ctx, key, off, length)
					if err != nil || !bytes.Equal(got, want[off:off+length]) {
						t.Fatalf("size %d: ReadAt [%d,%d) after its WriteAt: %v", size, off, off+length, err)
					}
					// A wider read straddling the patch.
					lo, hi := max(0, off-7), min(size, off+length+7)
					if got, err = store.ReadAt(ctx, key, lo, hi-lo); err != nil || !bytes.Equal(got, want[lo:hi]) {
						t.Fatalf("size %d: ReadAt [%d,%d): %v", size, lo, hi, err)
					}
				}
				checkObject(t, store, key, want)
			}
		})
	}
}

// checkObject reads the object whole through Get and GetWriter and
// compares both with the oracle.
func checkObject(t *testing.T, store *Store, key string, want []byte) {
	t.Helper()
	ctx := context.Background()
	got, err := store.Get(ctx, key)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%s: Get: %v (bytes match %v)", key, err, bytes.Equal(got, want))
	}
	var buf bytes.Buffer
	if written, err := store.GetWriter(ctx, key, &buf); err != nil || written != int64(len(want)) || !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("%s: GetWriter: %d bytes, %v", key, written, err)
	}
	if size, _ := store.Size(key); size != len(want) {
		t.Fatalf("%s: Size = %d, want %d", key, size, len(want))
	}
}

// TestWriteAtDisjointRangesOfOneBlock: two WriteAt calls patching
// disjoint byte ranges of the same stored block, started together, both
// survive — the patch is applied under the block's writer lock, to the
// bytes the write's own quorum read returned, not to a copy read
// before the lock.
func TestWriteAtDisjointRangesOfOneBlock(t *testing.T) {
	ctx := context.Background()
	// A 600-byte object on (9,6) is one stripe of 128-byte blocks.
	store := newGeometryStore(t, 9, 6, trapezoid.Shape{A: 2, B: 1, H: 1}, 2, 4096)
	want := streamPattern(600)
	if err := store.Put(ctx, "obj", want); err != nil {
		t.Fatal(err)
	}
	const block = 128 // bytes [128, 256) are block 1
	for round := range 20 {
		var wg sync.WaitGroup
		start := make(chan struct{})
		errs := make([]error, 2)
		for w := range 2 {
			off := block + w*64 + 10
			patch := bytes.Repeat([]byte{byte(2*round + w + 1)}, 40)
			copy(want[off:], patch)
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[w] = store.WriteAt(ctx, "obj", off, patch)
			}()
		}
		close(start)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		got, err := store.ReadAt(ctx, "obj", block, block)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[block:2*block]) {
			t.Fatalf("round %d: a WriteAt on a disjoint range of the block was lost", round)
		}
	}
}
