package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"time"
)

// spec is one workload. The four are fixed; nothing here is a flag.
type spec struct {
	name string
	why  string

	gateway    bool // drive client/gateway → internal/gateway → service instead of ObjectStore
	clients    int  // closed-loop clients; never more than maxClients, the sandbox's cores
	blockSize  int
	objects    int // preloaded objects, split evenly over the clients
	objectSize int
	churn      bool          // Put/Get/Delete cycle with FIFO churn; else 70/30 ReadAt/WriteAt of one block
	stream     bool          // churn through PutReader/GetWriter
	delay      time.Duration // chaosnet per-burst delay on every node link, after preload
	rebuild    bool          // after the window: repair every node, then grow and recode
	tailDelete int           // after the window: delete this many preloaded objects, timed (mix workloads)
}

// Shared by every workload: nine nodes, a (9,6) code, trapezoid
// a=2 b=1 h=1 w=2.
const (
	maxClients   = 2
	clusterNodes = 9
	codeN, codeK = 9, 6
	trapA, trapB = 2, 1
	trapH, trapW = 1, 2

	// The bulk-stream rebuild phase grows by three nodes and recodes to
	// (12,8) a=1 b=2 h=1 w=2.
	growNodes      = 3
	growN, growK   = 12, 8
	growA, growB   = 1, 2
	growH, growW   = 1, 2
	readsPerTen    = 7 // the mix: 7 ReadAt and 3 WriteAt in every ten ops
	wanDelay       = 500 * time.Microsecond
	warmupDuration = 2 * time.Second
	setupReps      = 3
	windowSlices   = 6
)

var specs = []spec{
	{
		name:    "churn-small",
		why:     "16 KiB objects put, read, deleted: per-object fixed costs dominate (directory, stripe allocation, full fan-out, one durable mutation per shard, sequential DeleteChunk loop); codec and gateway idle",
		clients: 1, blockSize: 4 << 10, objects: 512, objectSize: 16 << 10, churn: true,
	},
	{
		name:    "bulk-stream",
		why:     "4 MiB objects streamed through the gateway, then each node repaired and the fleet recoded to (12,8): per-byte costs dominate (encode, wire copies, stream pipeline, upload bracket, repair, drain)",
		gateway: true, clients: 1, blockSize: 64 << 10, objects: 24, objectSize: 4 << 20, churn: true, stream: true, rebuild: true,
	},
	{
		name:    "update-mix",
		why:     "70/30 one-block ReadAt/WriteAt through the gateway on loopback: the paper's direct read and delta-parity quorum write, CPU-bound, where the gateway's share of a read is largest",
		gateway: true, clients: 2, blockSize: 4 << 10, objects: 256, objectSize: 96 << 10, tailDelete: 24,
	},
	{
		name:    "wan-update-mix",
		why:     "the same data and mix, direct, with 500 us injected per burst on every node link: the latency-bound twin, p50 is round trips times delay; a CPU or gateway change must not move it",
		clients: 2, blockSize: 4 << 10, objects: 256, objectSize: 96 << 10, delay: wanDelay, tailDelete: 24,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// objectAPI is the S1 seam: what the driver calls. Both
// *trapquorum.ObjectStore and *client/gateway.Conn implement it.
type objectAPI interface {
	Put(ctx context.Context, key string, data []byte) error
	Get(ctx context.Context, key string) ([]byte, error)
	PutReader(ctx context.Context, key string, r io.Reader, size int) error
	GetWriter(ctx context.Context, key string, w io.Writer) (int64, error)
	ReadAt(ctx context.Context, key string, offset, length int) ([]byte, error)
	WriteAt(ctx context.Context, key string, offset int, p []byte) error
	Delete(ctx context.Context, key string) error
}

// payloadPool is the seeded byte pool every payload is a window of:
// payload bytes come from the seed without spending the measured
// window generating them.
type payloadPool []byte

func newPayloadPool(seed int64, maxPayload int) payloadPool {
	p := make([]byte, 4*maxPayload+(1<<20))
	rand.New(rand.NewSource(seed)).Read(p)
	return p
}

func (p payloadPool) at(off, size int) []byte { return p[off : off+size] }

// offsets is how many distinct payload windows of the size exist.
func (p payloadPool) offsets(size int) int { return len(p) - size + 1 }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func sum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// step is one generated client operation.
type step struct {
	kind   uint8  // opWrite, opRead, opDelete
	key    string // object
	block  int    // block index (mix workloads)
	source int    // payload pool offset (writes)
}

func objectKey(client, seq int) string { return fmt.Sprintf("c%d/o%07d", client, seq) }

// generator yields one client's deterministic step sequence. It owns
// the client's view of which keys are live, assuming every step
// succeeds (a failed step is counted, and the run is then incorrect
// anyway).
type generator struct {
	sp     spec
	client int
	rng    *rand.Rand
	pool   payloadPool

	// churn: FIFO of live keys, oldest first; phase is the position in
	// the put/get/delete cycle.
	live    []string
	nextSeq int
	phase   int

	// mix: the client's fixed key set, and the shuffled ten-op pattern
	// that makes the 70/30 mix exact rather than expected.
	keys    []string
	pattern [10]uint8
	patPos  int
}

func newGenerator(sp spec, clientIdx int, seed int64, pool payloadPool) *generator {
	g := &generator{
		sp: sp, client: clientIdx, pool: pool,
		rng: rand.New(rand.NewSource(seed*7919 + int64(clientIdx)*104729 + 1)),
	}
	per := sp.objects / sp.clients
	for i := 0; i < per; i++ {
		g.keys = append(g.keys, objectKey(clientIdx, i))
	}
	g.live = append(g.live, g.keys...)
	g.nextSeq = per
	g.patPos = len(g.pattern)
	return g
}

// preload yields the writes that build the client's working set.
func (g *generator) preload() []step {
	steps := make([]step, len(g.keys))
	for i, k := range g.keys {
		steps[i] = step{kind: opWrite, key: k, block: -1, source: g.rng.Intn(g.pool.offsets(g.sp.objectSize))}
	}
	return steps
}

func (g *generator) next() step {
	if g.sp.churn {
		return g.nextChurn()
	}
	return g.nextMix()
}

// nextChurn cycles Put new key, Get random live key, Delete oldest:
// the live set is back at its preloaded size after every cycle.
func (g *generator) nextChurn() step {
	phase := g.phase
	g.phase = (g.phase + 1) % 3
	switch phase {
	case 0:
		key := objectKey(g.client, g.nextSeq)
		g.nextSeq++
		g.live = append(g.live, key)
		return step{kind: opWrite, key: key, block: -1, source: g.rng.Intn(g.pool.offsets(g.sp.objectSize))}
	case 1:
		return step{kind: opRead, key: g.live[g.rng.Intn(len(g.live))], block: -1}
	default:
		key := g.live[0]
		g.live = g.live[1:]
		return step{kind: opDelete, key: key, block: -1}
	}
}

// nextMix reads or writes one uniformly chosen block of one uniformly
// chosen object of the client.
func (g *generator) nextMix() step {
	if g.patPos == len(g.pattern) {
		for i := range g.pattern {
			g.pattern[i] = opWrite
			if i < readsPerTen {
				g.pattern[i] = opRead
			}
		}
		g.rng.Shuffle(len(g.pattern), func(i, j int) { g.pattern[i], g.pattern[j] = g.pattern[j], g.pattern[i] })
		g.patPos = 0
	}
	kind := g.pattern[g.patPos]
	g.patPos++
	st := step{
		kind:  kind,
		key:   g.keys[g.rng.Intn(len(g.keys))],
		block: g.rng.Intn(g.sp.objectSize / g.sp.blockSize),
	}
	if kind == opWrite {
		st.source = g.rng.Intn(g.pool.offsets(g.sp.blockSize))
	}
	return st
}

// sample is one executed client op: an S1 span.
type sample struct {
	op         uint64
	kind       uint8
	start, end time.Time
	ok         bool
}

// worker is one closed-loop client: its API handle, its generator and
// the shadow hashes its reads are checked against. Clients own disjoint
// keys, so a shadow needs no lock.
type worker struct {
	idx    int
	sp     spec
	api    objectAPI
	gen    *generator
	tr     *tracer
	shadow map[string][]uint32 // key → one hash per block (mix) or one for the object (churn)
}

func newWorker(sp spec, idx int, api objectAPI, seed int64, pool payloadPool, tr *tracer) *worker {
	return &worker{idx: idx, sp: sp, api: api, tr: tr,
		gen: newGenerator(sp, idx, seed, pool), shadow: make(map[string][]uint32)}
}

// hashObject returns the shadow of a freshly written object.
func (w *worker) hashObject(data []byte) []uint32 {
	if w.sp.churn {
		return []uint32{sum(data)}
	}
	bs := w.sp.blockSize
	h := make([]uint32, len(data)/bs)
	for i := range h {
		h[i] = sum(data[i*bs : (i+1)*bs])
	}
	return h
}

// do executes one step, checks what it read, and returns the timed
// sample. A failed or mismatching op has ok == false.
func (w *worker) do(ctx context.Context, st step) sample {
	s := sample{kind: st.kind}
	if w.tr != nil {
		s.op, ctx = w.tr.beginOp(ctx, w.idx)
		defer w.tr.endOp(w.idx)
	}
	s.start = time.Now()
	s.ok = w.exec(ctx, st)
	s.end = time.Now()
	return s
}

func (w *worker) exec(ctx context.Context, st step) bool {
	switch {
	case st.kind == opDelete:
		if err := w.api.Delete(ctx, st.key); err != nil {
			logf("%s: Delete %s: %v", w.sp.name, st.key, err)
			return false
		}
		delete(w.shadow, st.key)
		return true
	case st.kind == opWrite && st.block < 0:
		data := w.gen.pool.at(st.source, w.sp.objectSize)
		var err error
		if w.sp.stream {
			err = w.api.PutReader(ctx, st.key, bytes.NewReader(data), len(data))
		} else {
			err = w.api.Put(ctx, st.key, data)
		}
		if err != nil {
			logf("%s: Put %s: %v", w.sp.name, st.key, err)
			return false
		}
		w.shadow[st.key] = w.hashObject(data)
		return true
	case st.kind == opWrite:
		data := w.gen.pool.at(st.source, w.sp.blockSize)
		if err := w.api.WriteAt(ctx, st.key, st.block*w.sp.blockSize, data); err != nil {
			logf("%s: WriteAt %s block %d: %v", w.sp.name, st.key, st.block, err)
			return false
		}
		w.shadow[st.key][st.block] = sum(data)
		return true
	case st.block < 0:
		return w.readObject(ctx, st.key)
	default:
		got, err := w.api.ReadAt(ctx, st.key, st.block*w.sp.blockSize, w.sp.blockSize)
		if err != nil {
			logf("%s: ReadAt %s block %d: %v", w.sp.name, st.key, st.block, err)
			return false
		}
		if len(got) != w.sp.blockSize || sum(got) != w.shadow[st.key][st.block] {
			logf("%s: ReadAt %s block %d: content does not match the shadow hash", w.sp.name, st.key, st.block)
			return false
		}
		return true
	}
}

// readObject reads a whole object and checks it against the shadow:
// one hash for a churn object, one per block for a mix object (the
// restart verification reads mix objects whole).
func (w *worker) readObject(ctx context.Context, key string) bool {
	want, ok := w.shadow[key]
	if !ok {
		logf("%s: read of %s, which the shadow does not hold", w.sp.name, key)
		return false
	}
	if w.sp.stream {
		h := crc32.New(castagnoli)
		n, err := w.api.GetWriter(ctx, key, h)
		if err != nil {
			logf("%s: GetWriter %s: %v", w.sp.name, key, err)
			return false
		}
		if int(n) != w.sp.objectSize || h.Sum32() != want[0] {
			logf("%s: GetWriter %s: content does not match the shadow hash", w.sp.name, key)
			return false
		}
		return true
	}
	got, err := w.api.Get(ctx, key)
	if err != nil {
		logf("%s: Get %s: %v", w.sp.name, key, err)
		return false
	}
	if len(got) != w.sp.objectSize {
		logf("%s: Get %s: %d bytes, want %d", w.sp.name, key, len(got), w.sp.objectSize)
		return false
	}
	have := w.hashObject(got)
	for i := range want {
		if have[i] != want[i] {
			logf("%s: Get %s: content does not match the shadow hash", w.sp.name, key)
			return false
		}
	}
	return true
}

// liveKeys lists the keys the shadow holds, in generator order.
func (w *worker) liveKeys() []string {
	if w.sp.churn {
		return append([]string(nil), w.gen.live...)
	}
	keys := make([]string, 0, len(w.shadow))
	for _, k := range w.gen.keys {
		if _, ok := w.shadow[k]; ok {
			keys = append(keys, k)
		}
	}
	return keys
}
