// Virtualdisk: the paper's motivating workload. Several virtual
// machines share an erasure-coded storage backend; each VM owns a
// range of disk blocks and issues a Zipf-skewed read/write mix, while
// a fault injector crashes, restarts and repairs nodes. Strict
// consistency is checked continuously: every read must return the
// last value the VM wrote to that block.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"trapquorum"
)

const (
	numVMs         = 4
	blocksPerVM    = 2
	blockSize      = 1024
	opsPerVM       = 400
	nodeCount      = 15
	dataBlockCount = 8 // k of the (15,8) code; VMs share one stripe
)

func main() {
	ctx := context.Background()
	store, err := trapquorum.OpenStore(ctx,
		trapquorum.WithCode(nodeCount, dataBlockCount),
		trapquorum.WithTrapezoid(2, 3, 1, 3),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()

	// One stripe backs the shared disk: 8 blocks of 1 KiB.
	initial := make([][]byte, dataBlockCount)
	for i := range initial {
		initial[i] = bytes.Repeat([]byte{byte(i)}, blockSize)
	}
	if err := store.SeedStripe(ctx, 1, initial); err != nil {
		log.Fatal(err)
	}

	var mu sync.Mutex
	stale, failedReads, failedWrites, okOps := 0, 0, 0, 0

	// Fault injector: crashes a random non-critical node, lets the
	// workload run degraded for a moment, then heals and repairs it.
	// Level-0 parity shards (8, 9) stay up so version checks always
	// have a home — the paper's "usual p" regime. A repair may lose
	// its race against concurrent writes (version-guarded install);
	// it is retried a few times and the node self-heals on the next
	// cycle otherwise.
	stopFaults := make(chan struct{})
	var injectorWG sync.WaitGroup
	var faultCycles, repairRetries atomic.Int64
	injectorWG.Add(1)
	go func() {
		defer injectorWG.Done()
		r := rand.New(rand.NewSource(999))
		candidates := []int{0, 1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14}
		for {
			select {
			case <-stopFaults:
				return
			default:
			}
			victim := candidates[r.Intn(len(candidates))]
			if err := store.CrashNode(victim); err != nil {
				log.Fatal(err)
			}
			time.Sleep(2 * time.Millisecond) // degraded window
			if err := store.RestartNode(victim); err != nil {
				log.Fatal(err)
			}
			for attempt := 0; attempt < 5; attempt++ {
				if _, err := store.RepairNode(ctx, victim); err == nil {
					break
				}
				repairRetries.Add(1)
			}
			faultCycles.Add(1)
		}
	}()

	// VM workers: VM v owns blocks [v*blocksPerVM, (v+1)*blocksPerVM).
	var vmWG sync.WaitGroup
	for vm := 0; vm < numVMs; vm++ {
		vmWG.Add(1)
		go func(vm int) {
			defer vmWG.Done()
			// Zipf(1.3) skews accesses toward the VM's first block (FS
			// metadata runs hot); 60% of operations are reads.
			r := rand.New(rand.NewSource(int64(vm)))
			zipf := rand.NewZipf(r, 1.3, 1, blocksPerVM-1)
			last := make(map[int][]byte)
			for op := 0; op < opsPerVM; op++ {
				block := vm*blocksPerVM + int(zipf.Uint64())
				if r.Float64() < 0.6 {
					data, _, err := store.ReadBlock(ctx, 1, block)
					mu.Lock()
					switch {
					case err == nil:
						if want, ok := last[block]; ok && !bytes.Equal(data, want) {
							stale++
						} else {
							okOps++
						}
					case errors.Is(err, trapquorum.ErrNotReadable):
						failedReads++
					default:
						log.Fatalf("unexpected read error: %v", err)
					}
					mu.Unlock()
					continue
				}
				data := make([]byte, blockSize)
				r.Read(data)
				err := store.WriteBlock(ctx, 1, block, data)
				mu.Lock()
				if err == nil {
					last[block] = data
					okOps++
				} else if errors.Is(err, trapquorum.ErrWriteFailed) {
					failedWrites++
				} else {
					log.Fatalf("unexpected write error: %v", err)
				}
				mu.Unlock()
			}
		}(vm)
	}

	vmWG.Wait()
	close(stopFaults)
	injectorWG.Wait()

	fmt.Printf("virtual-disk workload: %d VMs x %d ops, %d-byte blocks, %d fault cycles injected\n",
		numVMs, opsPerVM, blockSize, faultCycles.Load())
	fmt.Printf("  ops ok:         %d\n", okOps)
	fmt.Printf("  failed writes:  %d (no quorum at failure instant)\n", failedWrites)
	fmt.Printf("  failed reads:   %d (no version-check quorum)\n", failedReads)
	fmt.Printf("  repair retries: %d (lost races against live writes)\n", repairRetries.Load())
	fmt.Printf("  STALE READS:    %d  <- strict consistency requires 0\n", stale)
	m := store.Metrics()
	fmt.Printf("  protocol: %d direct reads, %d decode reads, %d rollbacks, %d repairs\n",
		m.DirectReads, m.DecodeReads, m.Rollbacks, m.Repairs)
	if stale > 0 {
		log.Fatal("CONSISTENCY VIOLATION")
	}
	fmt.Println("strict consistency held under failures.")
}
