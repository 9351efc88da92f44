package trapquorum

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"trapquorum/internal/dispatch"
	"trapquorum/internal/history"
	"trapquorum/internal/sim"
)

// historySeeds is how many seeds TestRegisterHistory runs: seeds 1..N.
var historySeeds = flag.Int("history.seeds", 3, "TestRegisterHistory runs seeds 1..N")

// The register-history run: concurrent clients doing one- and
// two-block WriteAt and ReadAt on one multi-block object of an
// ObjectStore on sim, under a seeded schedule of crash, restart, wipe
// and request and response loss, every operation recorded and each
// block checked as a register (internal/history).
const (
	historyClients     = 3
	historyOps         = 50 // per client
	historyBlockSize   = 256
	historyStripes     = 2
	historyOpTimeout   = 60 * time.Millisecond
	historyOpsPerFault = 4
)

// TestRegisterHistory runs the register-history check for seeds
// 1..-history.seeds. A seed's fault schedule is fixed by the seed; the
// interleaving of the clients is not, and the rule tolerates any.
func TestRegisterHistory(t *testing.T) {
	for seed := 1; seed <= *historySeeds; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			ok := false
			defer func() {
				if !ok {
					t.Logf("replay: go test -run 'TestRegisterHistory/seed=%d$' -history.seeds=%d .", seed, seed)
				}
			}()
			runRegisterHistory(t, int64(seed))
			ok = !t.Failed()
		})
	}
}

// historyValue is the content of one block write: v in the first eight
// bytes, the rest a stream derived from v, so a read of torn or mixed
// bytes decodes to no value anyone wrote.
func historyValue(v uint64, size int) []byte {
	out := make([]byte, size)
	binary.LittleEndian.PutUint64(out, v)
	x := v | 1
	for i := 8; i < size; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x)
	}
	return out
}

// historyDecode maps a block's bytes back to the value written, or to
// 0 — which no write uses — when they are no write's bytes.
func historyDecode(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	v := binary.LittleEndian.Uint64(b)
	if string(historyValue(v, len(b))) != string(b) {
		return 0
	}
	return v
}

// historyFault is one step of a seed's fault schedule.
type historyFault struct {
	kind string // crash, restart, wipe, reqloss, resploss, heal
	node int
}

// historySchedule draws a seed's fault steps: at most two nodes faulty
// at a time, each fault healed by a later step, and a wipe only when
// every other node is healthy — it is followed at once by the node's
// repair, which then sees every committed write (a wipe beside other
// faults would be data loss, which no quorum protocol survives).
func historySchedule(seed int64, n, steps int) []historyFault {
	r := rand.New(rand.NewSource(seed))
	faulty := map[int]string{}
	var out []historyFault
	for len(out) < steps {
		if len(faulty) > 0 && (len(faulty) == 2 || r.Intn(3) == 0) {
			for node, kind := range faulty {
				heal := "heal"
				if kind == "crash" {
					heal = "restart"
				}
				out = append(out, historyFault{heal, node})
				delete(faulty, node)
				break
			}
			continue
		}
		node := r.Intn(n)
		if _, busy := faulty[node]; busy {
			continue
		}
		kinds := []string{"crash", "reqloss", "resploss"}
		if len(faulty) == 0 {
			kinds = append(kinds, "wipe")
		}
		kind := kinds[r.Intn(len(kinds))]
		out = append(out, historyFault{kind, node})
		if kind != "wipe" {
			faulty[node] = kind
		}
	}
	return out
}

func runRegisterHistory(t *testing.T, seed int64) {
	ctx := context.Background()
	base := runtime.NumGoroutine() - dispatch.Parked()
	backend := NewSimBackend(WithChaosSeed(seed))
	store, err := Open(ctx, WithBackend(backend), WithBlockSize(historyBlockSize))
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			store.Close()
		}
	}()
	n, k := store.CodeParams()
	blocks := historyStripes * k
	initial := map[int]uint64{}
	object := make([]byte, 0, blocks*historyBlockSize)
	for b := 0; b < blocks; b++ {
		initial[b] = 1<<63 | uint64(b)
		object = append(object, historyValue(initial[b], historyBlockSize)...)
	}
	if err := store.Put(ctx, "obj", object); err != nil {
		t.Fatal(err)
	}
	h := history.New(initial)

	faults := &historyFaults{t: t, store: store, backend: backend, steps: historySchedule(seed, n, historyClients*historyOps/historyOpsPerFault)}
	var clients sync.WaitGroup
	for c := 0; c < historyClients; c++ {
		clients.Add(1)
		go func(c int) {
			defer clients.Done()
			runHistoryClient(store, h, faults, c, rand.New(rand.NewSource(seed*100+int64(c))), blocks)
		}(c)
	}
	clients.Wait()

	// Healed and repaired, every block is read once more.
	backend.HealLinks()
	for j := 0; j < n; j++ {
		backend.Restart(j)
	}
	for b := 0; b < blocks; b++ {
		historyRead(store, h, historyClients, b, 1)
	}
	var outcomes [2][3]int // by kind and outcome
	for _, o := range h.Ops() {
		outcomes[o.Kind][o.Outcome]++
	}
	m := store.Metrics()
	t.Logf("writes %d ok %d failed, reads %d ok %d failed; one-round writes %d, fallbacks %d, rollbacks %d",
		outcomes[history.Write][history.Ok], outcomes[history.Write][history.Failed],
		outcomes[history.Read][history.Ok], outcomes[history.Read][history.Failed],
		m.OneRoundWrites, m.CacheFallbacks, m.Rollbacks)
	for _, v := range h.Check() {
		t.Errorf("register rule: %v", v)
	}

	// Nothing is left holding a lock or running.
	if objects, blockLocks := store.fleet.HeldLocks(); objects != 0 || blockLocks != 0 {
		t.Errorf("lock tables hold %d objects and %d blocks after every operation returned", objects, blockLocks)
	}
	store.Close()
	closed = true
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine()-dispatch.Parked() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine() - dispatch.Parked(); now > base {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines outlive the store (%d before it opened):\n%s", now, base, buf[:runtime.Stack(buf, true)])
	}
}

// runHistoryClient issues historyOps operations: half writes, half
// reads, of one block or, now and then, of two adjacent ones.
func runHistoryClient(store *ObjectStore, h *history.History, faults *historyFaults, c int, r *rand.Rand, blocks int) {
	for i := 0; i < historyOps; i++ {
		faults.step()
		b, span := r.Intn(blocks), 1
		if b+1 < blocks && r.Intn(5) == 0 {
			span = 2
		}
		if r.Intn(2) == 0 {
			historyRead(store, h, c, b, span)
			continue
		}
		p := make([]byte, 0, span*historyBlockSize)
		ops := make([]int, span)
		for j := range ops {
			v := uint64(c+1)<<32 | uint64(i)<<8 | uint64(j)
			p = append(p, historyValue(v, historyBlockSize)...)
			ops[j] = h.Invoke(c, history.Write, b+j, v)
		}
		ctx, cancel := context.WithTimeout(context.Background(), historyOpTimeout)
		err := store.WriteAt(ctx, "obj", b*historyBlockSize, p)
		cancel()
		for _, op := range ops {
			h.Respond(op, err == nil, 0)
		}
	}
}

// historyRead reads blocks [b, b+span) and records one read per block.
func historyRead(store *ObjectStore, h *history.History, c, b, span int) {
	ops := make([]int, span)
	for j := range ops {
		ops[j] = h.Invoke(c, history.Read, b+j, 0)
	}
	ctx, cancel := context.WithTimeout(context.Background(), historyOpTimeout)
	got, err := store.ReadAt(ctx, "obj", b*historyBlockSize, span*historyBlockSize)
	cancel()
	for j, op := range ops {
		var v uint64
		if err == nil {
			v = historyDecode(got[j*historyBlockSize : (j+1)*historyBlockSize])
		}
		h.Respond(op, err == nil, v)
	}
}

// historyFaults applies a schedule one step per historyOpsPerFault
// operations the clients start, so the faults land among the
// operations however fast the simulator runs them.
type historyFaults struct {
	t       *testing.T
	store   *ObjectStore
	backend *SimBackend
	steps   []historyFault

	mu  sync.Mutex
	ops int
}

// step counts one operation and, on every historyOpsPerFault-th,
// applies the next step of the schedule.
func (hf *historyFaults) step() {
	hf.mu.Lock()
	defer hf.mu.Unlock()
	hf.ops++
	if hf.ops%historyOpsPerFault != 0 || len(hf.steps) == 0 {
		return
	}
	f := hf.steps[0]
	hf.steps = hf.steps[1:]
	switch f.kind {
	case "crash":
		hf.backend.Crash(f.node)
	case "restart":
		hf.backend.Restart(f.node)
	case "reqloss":
		hf.backend.SetLinkFault(f.node, sim.LinkFault{ReqLoss: 0.5})
	case "resploss":
		hf.backend.SetLinkFault(f.node, sim.LinkFault{RespLoss: 0.5})
	case "heal":
		hf.backend.SetLinkFault(f.node, sim.LinkFault{})
	case "wipe":
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		if err := hf.store.WipeNode(ctx, f.node); err != nil {
			hf.t.Errorf("wipe node %d: %v", f.node, err)
		} else if _, err := hf.store.RepairNode(ctx, f.node); err != nil {
			hf.t.Errorf("repair node %d after its wipe: %v", f.node, err)
		}
	}
}
