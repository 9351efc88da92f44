package erasure

import (
	"fmt"
	"math/rand"
	"testing"

	"trapquorum/internal/blockpool"
)

// Data-plane throughput benchmarks: Encode, Reconstruct, RepairShard
// and the delta-update pipeline across block sizes {1 KiB, 64 KiB,
// 1 MiB} and (n,k) shapes, with SetBytes so `go test -bench` reports
// MB/s and ReportAllocs pinning the ~0 allocs/op claim of the pooled
// steady state. tools/benchjson turns the output into
// BENCH_dataplane.json.

var (
	dpSizes  = []int{1 << 10, 64 << 10, 1 << 20}
	dpShapes = [][2]int{{15, 8}, {9, 6}, {20, 12}}
)

func dpName(shape [2]int, size int) string {
	unit := fmt.Sprintf("%dK", size>>10)
	if size >= 1<<20 {
		unit = fmt.Sprintf("%dM", size>>20)
	}
	return fmt.Sprintf("%d_%d/%s", shape[0], shape[1], unit)
}

func BenchmarkEncodeInto(b *testing.B) {
	for _, shape := range dpShapes {
		for _, size := range dpSizes {
			b.Run(dpName(shape, size), func(b *testing.B) {
				r := rand.New(rand.NewSource(60))
				c := mustCode(b, shape[0], shape[1])
				data := randStripeData(r, c.K(), size)
				parity := make([][]byte, c.ParityCount())
				for j := range parity {
					parity[j] = make([]byte, size)
				}
				b.SetBytes(int64(c.K() * size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.EncodeInto(parity, data); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkEncodeParallel measures the stripe-parallel encoder at the
// configured worker counts (wall-clock gains require >1 CPU; the
// benchmark also documents the parallel path's overhead on 1 CPU).
func BenchmarkEncodeParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			r := rand.New(rand.NewSource(61))
			c, err := New(15, 8, WithParallelism(workers))
			if err != nil {
				b.Fatal(err)
			}
			const size = 1 << 20
			data := randStripeData(r, 8, size)
			parity := make([][]byte, 7)
			for j := range parity {
				parity[j] = make([]byte, size)
			}
			b.SetBytes(8 * size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.EncodeInto(parity, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReconstructInto(b *testing.B) {
	// Two lost shards. The classic double failure — one data, one parity
	// — rebuilds one row at a time; two lost data shards rebuild as one
	// bank, the multi-row fan-out.
	losses := []struct {
		suffix string
		lost   func(c *Code) [2]int
	}{
		{"", func(c *Code) [2]int { return [2]int{0, c.K() + 1} }},
		{"/2data", func(c *Code) [2]int { return [2]int{0, 1} }},
	}
	for _, loss := range losses {
		for _, shape := range dpShapes {
			for _, size := range dpSizes {
				b.Run(dpName(shape, size)+loss.suffix, func(b *testing.B) {
					r := rand.New(rand.NewSource(62))
					c := mustCode(b, shape[0], shape[1])
					orig, err := c.Encode(randStripeData(r, c.K(), size))
					if err != nil {
						b.Fatal(err)
					}
					lost := loss.lost(c)
					shards := make([][]byte, c.N())
					dst := make([][]byte, c.N())
					dst[lost[0]] = make([]byte, size)
					dst[lost[1]] = make([]byte, size)
					b.SetBytes(int64(2 * size))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						copy(shards, orig)
						shards[lost[0]], shards[lost[1]] = nil, nil
						if err := c.ReconstructInto(shards, dst); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

func BenchmarkRepairShardInto(b *testing.B) {
	for _, shape := range dpShapes {
		for _, size := range dpSizes {
			b.Run(dpName(shape, size), func(b *testing.B) {
				r := rand.New(rand.NewSource(63))
				c := mustCode(b, shape[0], shape[1])
				orig, err := c.Encode(randStripeData(r, c.K(), size))
				if err != nil {
					b.Fatal(err)
				}
				shards := cloneShards(orig)
				shards[c.K()] = nil // repair the first parity shard
				dst := make([]byte, size)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := c.RepairShardInto(dst, c.K(), shards); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDeltaUpdate measures the Algorithm 1 update pipeline — the
// per-parity α_{j,i}·(x−old) accumulate — across all parity rows, the
// node-side cost of one block write.
func BenchmarkDeltaUpdate(b *testing.B) {
	for _, shape := range dpShapes {
		for _, size := range dpSizes {
			b.Run(dpName(shape, size), func(b *testing.B) {
				r := rand.New(rand.NewSource(64))
				c := mustCode(b, shape[0], shape[1])
				data := randStripeData(r, c.K(), size)
				shards, err := c.Encode(data)
				if err != nil {
					b.Fatal(err)
				}
				newBlock := make([]byte, size)
				r.Read(newBlock)
				b.SetBytes(int64(c.ParityCount() * size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for j := c.K(); j < c.N(); j++ {
						c.UpdateParity(shards[j], j, 3%c.K(), data[3%c.K()], newBlock)
					}
				}
			})
		}
	}
}

// BenchmarkVerify measures the scrubber's parity audit (word-wise
// banked re-derivation with in-place lane compare).
func BenchmarkVerify(b *testing.B) {
	for _, size := range dpSizes {
		b.Run(dpName([2]int{15, 8}, size), func(b *testing.B) {
			r := rand.New(rand.NewSource(65))
			c := mustCode(b, 15, 8)
			shards, err := c.Encode(randStripeData(r, 8, size))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(8 * size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := c.Verify(shards)
				if err != nil || !ok {
					b.Fatalf("Verify = %v, %v", ok, err)
				}
			}
		})
	}
}

// BenchmarkDeltaUpdatePooled is the write path's exact shape: pooled
// delta + pooled adjustment, DataDeltaInto + ParityAdjustmentInto +
// ApplyAdjustment, one parity row.
func BenchmarkDeltaUpdatePooled(b *testing.B) {
	for _, size := range dpSizes {
		b.Run(dpName([2]int{15, 8}, size), func(b *testing.B) {
			r := rand.New(rand.NewSource(66))
			c := mustCode(b, 15, 8)
			data := randStripeData(r, 8, size)
			shards, err := c.Encode(data)
			if err != nil {
				b.Fatal(err)
			}
			newBlock := make([]byte, size)
			r.Read(newBlock)
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				delta := blockpool.GetBlock(size)
				DataDeltaInto(delta.B, data[3], newBlock)
				adj := blockpool.GetBlock(size)
				c.ParityAdjustmentInto(adj.B, 9, 3, delta.B)
				ApplyAdjustment(shards[9], adj.B)
				adj.Release()
				delta.Release()
			}
		})
	}
}
