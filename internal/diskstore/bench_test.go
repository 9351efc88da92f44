package diskstore_test

import (
	"context"
	"sync"
	"testing"

	"trapquorum/client"
	"trapquorum/internal/diskstore"
	"trapquorum/internal/nodeengine"
)

// Mutation IOPS benchmarks: the per-mutation fsync path versus group
// commit, at 1, 8 and 64 concurrent writers driving an engine over a
// durable store (WithSyncWrites(true) — these benchmarks pay real
// fsyncs; that is the quantity being measured). Each writer mutates
// its own chunk so the comparison isolates commit cost, not engine
// contention on one id. Results feed tools/benchjson →
// BENCH_diskstore.json; see docs/PERFORMANCE.md §"Group commit".

const benchChunkSize = 4096

func benchPutChunk(b *testing.B, writers int, group bool) {
	opts := []diskstore.Option{diskstore.WithSyncWrites(true)}
	if group {
		opts = append(opts, diskstore.WithGroupCommit(0, 0))
	}
	s, err := diskstore.Open(b.TempDir(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	e := nodeengine.New(s)
	defer e.Close()

	payload := make([]byte, benchChunkSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	ctx := context.Background()
	// Prime every writer's chunk outside the window so the steady state
	// measures overwrites, not first-touch file creation.
	for w := 0; w < writers; w++ {
		if err := e.PutChunk(ctx, client.ChunkID{Stripe: uint64(w)}, payload, []uint64{0}); err != nil {
			b.Fatal(err)
		}
	}

	b.SetBytes(benchChunkSize)
	b.ResetTimer()
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			id := client.ChunkID{Stripe: uint64(w)}
			for i := w; i < b.N; i += writers {
				if err := e.PutChunk(ctx, id, payload, []uint64{uint64(i) + 1}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	select {
	case err := <-errs:
		b.Fatal(err)
	default:
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "mutations/s")
}

func BenchmarkPutChunkSync1Writers(b *testing.B)  { benchPutChunk(b, 1, false) }
func BenchmarkPutChunkSync8Writers(b *testing.B)  { benchPutChunk(b, 8, false) }
func BenchmarkPutChunkSync64Writers(b *testing.B) { benchPutChunk(b, 64, false) }

func BenchmarkPutChunkGroup1Writers(b *testing.B)  { benchPutChunk(b, 1, true) }
func BenchmarkPutChunkGroup8Writers(b *testing.B)  { benchPutChunk(b, 8, true) }
func BenchmarkPutChunkGroup64Writers(b *testing.B) { benchPutChunk(b, 64, true) }
