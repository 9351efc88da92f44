package trapquorum

// One benchmark per experiment of DESIGN.md §3. Each regenerates the
// corresponding figure's data (F2–F5), validates closed forms by
// Monte-Carlo (V1), or measures the ablations (A1–A4) and the
// concurrent-engine experiments (A8: sequential vs parallel latency,
// straggler isolation, hedged tails — recorded in
// docs/PERFORMANCE.md). Key scalar outputs are attached via
// b.ReportMetric so `go test -bench` output doubles as the numeric
// record the docs cite.

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"trapquorum/internal/availability"
	"trapquorum/internal/erasure"
	"trapquorum/internal/figures"
	"trapquorum/internal/montecarlo"
	"trapquorum/internal/trapezoid"
)

// BenchmarkFig2WriteAvailability regenerates Figure 2 (write
// availability vs p, one curve per w on the Figure-1 trapezoid).
func BenchmarkFig2WriteAvailability(b *testing.B) {
	var fig *figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = figures.Fig2()
		if err != nil {
			b.Fatal(err)
		}
	}
	v, err := fig.At("w=3", 0.9)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(v, "Pwrite(w=3,p=0.9)")
}

// BenchmarkFig3ReadAvailability regenerates Figure 3 (read
// availability, TRAP-ERC vs TRAP-FR). The reported metrics are the
// paper's quoted p=0.5 values: FR ≈ 0.75, ERC ≈ 0.63.
func BenchmarkFig3ReadAvailability(b *testing.B) {
	var fig *figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = figures.Fig3()
		if err != nil {
			b.Fatal(err)
		}
	}
	fr, _ := fig.At("TRAP-FR", 0.5)
	erc, _ := fig.At("TRAP-ERC(eq13)", 0.5)
	b.ReportMetric(fr, "PreadFR(p=0.5)")
	b.ReportMetric(erc, "PreadERC(p=0.5)")
}

// BenchmarkFig4ReadAvailabilityRedundancy regenerates Figure 4 (ERC
// read availability vs p for n−k ∈ {5,7,9,11}, n=15).
func BenchmarkFig4ReadAvailabilityRedundancy(b *testing.B) {
	var fig *figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = figures.Fig4()
		if err != nil {
			b.Fatal(err)
		}
	}
	lo, _ := fig.At("k=10 (n-k=5)", 0.5)
	hi, _ := fig.At("k=4 (n-k=11)", 0.5)
	b.ReportMetric(lo, "Pread(k=10,p=0.5)")
	b.ReportMetric(hi, "Pread(k=4,p=0.5)")
}

// BenchmarkFig5StorageSpace regenerates Figure 5 (storage per block vs
// k for n=15). Reported: the paper's k=8 example (FR = 8 blocks,
// ERC = 1.875 blocks).
func BenchmarkFig5StorageSpace(b *testing.B) {
	var fig *figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = figures.Fig5()
		if err != nil {
			b.Fatal(err)
		}
	}
	fr, _ := fig.At("TRAP-FR", 8)
	erc, _ := fig.At("TRAP-ERC", 8)
	b.ReportMetric(fr, "D_FR(k=8)")
	b.ReportMetric(erc, "D_ERC(k=8)")
}

// BenchmarkMonteCarloValidation runs the V1 experiment: Monte-Carlo
// estimates against every closed form on the Figure-3 configuration.
// Reported: the worst absolute formula-vs-estimate gap across the
// grid (should sit within sampling noise).
func BenchmarkMonteCarloValidation(b *testing.B) {
	const trials = 4000
	var fig *figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = figures.MonteCarloValidation(trials, 1)
		if err != nil {
			b.Fatal(err)
		}
	}
	worst := 0.0
	for pair := 0; pair < len(fig.Series); pair += 2 {
		for i := range fig.X {
			if d := math.Abs(fig.Series[pair].Y[i] - fig.Series[pair+1].Y[i]); d > worst {
				worst = d
			}
		}
	}
	b.ReportMetric(worst, "worst|formula-mc|")
}

// BenchmarkAblationBaselines runs the A1 experiment: trapezoid vs
// ROWA/Majority/Grid/Tree availability curves. Reported: trapezoid and
// majority write availability at p=0.9.
func BenchmarkAblationBaselines(b *testing.B) {
	var w *figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		w, err = figures.AblationWrite()
		if err != nil {
			b.Fatal(err)
		}
		if _, err = figures.AblationRead(); err != nil {
			b.Fatal(err)
		}
	}
	trap, _ := w.At("Trapezoid(a=2 b=3 h=1)", 0.9)
	maj, _ := w.At("Majority(n=8)", 0.9)
	b.ReportMetric(trap, "trapezoid@0.9")
	b.ReportMetric(maj, "majority@0.9")
}

// BenchmarkAblationUpdateCostDelta measures the A2 experiment's fast
// path: updating one block's parity via the in-place Galois delta
// (what Algorithm 1 ships to parity nodes).
func BenchmarkAblationUpdateCostDelta(b *testing.B) {
	code, err := erasure.New(15, 8)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	data := make([][]byte, 8)
	for i := range data {
		data[i] = make([]byte, 4096)
		r.Read(data[i])
	}
	shards, err := code.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	newBlock := make([]byte, 4096)
	r.Read(newBlock)
	delta, adj := make([]byte, 4096), make([]byte, 4096)
	b.SetBytes(int64(code.ParityCount()) * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		erasure.DataDeltaInto(delta, data[3], newBlock)
		for j := 8; j < 15; j++ {
			code.ParityAdjustmentInto(adj, j, 3, delta)
			erasure.ApplyAdjustment(shards[j], adj)
		}
	}
}

// BenchmarkAblationUpdateCostReencode measures the A2 experiment's
// slow path: the full stripe re-encode a protocol without in-place
// updates would need for the same single-block change.
func BenchmarkAblationUpdateCostReencode(b *testing.B) {
	code, err := erasure.New(15, 8)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	data := make([][]byte, 8)
	for i := range data {
		data[i] = make([]byte, 4096)
		r.Read(data[i])
	}
	b.SetBytes(int64(code.ParityCount()) * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolEndToEndWrite measures the A3 experiment: one
// quorum block write (Algorithm 1) on a healthy (15,8) cluster.
func BenchmarkProtocolEndToEndWrite(b *testing.B) {
	store, err := OpenStore(context.Background(), WithCode(15, 8), WithTrapezoid(2, 3, 1, 3))
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	blocks := make([][]byte, 8)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i)}, 4096)
	}
	if err := store.SeedStripe(context.Background(), 1, blocks); err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.WriteBlock(context.Background(), 1, i%8, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolEndToEndRead measures one quorum block read
// (Algorithm 2, Case 1 fast path) on a healthy cluster.
func BenchmarkProtocolEndToEndRead(b *testing.B) {
	store, err := OpenStore(context.Background(), WithCode(15, 8), WithTrapezoid(2, 3, 1, 3))
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	blocks := make([][]byte, 8)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i)}, 4096)
	}
	if err := store.SeedStripe(context.Background(), 1, blocks); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.ReadBlock(context.Background(), 1, i%8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProtocolDegradedRead measures the decode path (Algorithm 2
// Case 2): the data node is down, the block is rebuilt from k shards.
func BenchmarkProtocolDegradedRead(b *testing.B) {
	store, err := OpenStore(context.Background(), WithCode(15, 8), WithTrapezoid(2, 3, 1, 3))
	if err != nil {
		b.Fatal(err)
	}
	defer store.Close()
	blocks := make([][]byte, 8)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i)}, 4096)
	}
	if err := store.SeedStripe(context.Background(), 1, blocks); err != nil {
		b.Fatal(err)
	}
	store.CrashNode(2) // force Case 2 for block 2
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.ReadBlock(context.Background(), 1, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndurance runs the A4 experiment: availability over
// virtual time under MTBF/MTTR failures, with and without the repair
// daemon. Reported: the final-window write rates of both runs — the
// gap is the decay the paper's model hides.
func BenchmarkEndurance(b *testing.B) {
	var fig *figures.Figure
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = figures.Endurance(1500, 10, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(fig.X) - 1
	for _, s := range fig.Series {
		switch s.Name {
		case "write(no repair)":
			b.ReportMetric(s.Y[last], "write-norepair@end")
		case "write(repair)":
			b.ReportMetric(s.Y[last], "write-repair@end")
		}
	}
}

// lanBackend is the default fixture backend of the A8 concurrency
// benchmarks: every simulated node imposes a fixed 200µs
// per-operation latency (a LAN RPC).
func lanBackend() *SimBackend {
	return NewSimBackend(WithFixedNodeDelay(200 * time.Microsecond))
}

// benchDelayedStore opens a seeded (15,8) store on the given simulated
// backend, plus any extra options.
func benchDelayedStore(b *testing.B, backend *SimBackend, extra ...Option) *Store {
	b.Helper()
	opts := append([]Option{
		WithCode(15, 8),
		WithTrapezoid(2, 3, 1, 3),
		WithBackend(backend),
	}, extra...)
	store, err := OpenStore(context.Background(), opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	blocks := make([][]byte, 8)
	for i := range blocks {
		blocks[i] = bytes.Repeat([]byte{byte(i)}, 4096)
	}
	if err := store.SeedStripe(context.Background(), 1, blocks); err != nil {
		b.Fatal(err)
	}
	return store
}

// BenchmarkQuorumReadSequential measures a healthy quorum read under a
// 200µs per-node delay with the sequential engine (concurrency 1):
// latency is the *sum* of the version probes plus the chunk read.
func BenchmarkQuorumReadSequential(b *testing.B) {
	store := benchDelayedStore(b, lanBackend(), WithConcurrency(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.ReadBlock(context.Background(), 1, i%8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuorumReadParallel is BenchmarkQuorumReadSequential on the
// default parallel fan-out: all probes fly at once and the read
// terminates at the first level quorum, so latency tracks the *max*
// per-level RPC latency. The A8 experiment is the ratio of the two.
func BenchmarkQuorumReadParallel(b *testing.B) {
	store := benchDelayedStore(b, lanBackend())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.ReadBlock(context.Background(), 1, i%8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuorumWriteSequential measures a quorum write (initial
// read + 8 node updates) under a 200µs per-node delay, one RPC at a
// time.
func BenchmarkQuorumWriteSequential(b *testing.B) {
	store := benchDelayedStore(b, lanBackend(), WithConcurrency(1))
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.WriteBlock(context.Background(), 1, i%8, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuorumWriteParallel is the same write on the parallel
// engine: the whole trapezoid is updated in one fan-out round.
func BenchmarkQuorumWriteParallel(b *testing.B) {
	store := benchDelayedStore(b, lanBackend())
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.WriteBlock(context.Background(), 1, i%8, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// benchObjectDelete times Delete of a one-stripe object on the
// Figure-3 configuration under the 200µs per-node delay; the Put that
// creates each object runs with the timer stopped.
func benchObjectDelete(b *testing.B, extra ...Option) {
	b.Helper()
	ctx := context.Background()
	store, err := Open(ctx, append([]Option{WithBackend(lanBackend())}, extra...)...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { store.Close() })
	payload := bytes.Repeat([]byte{0xCD}, 8*4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := store.Put(ctx, "obj", payload); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := store.Delete(ctx, "obj"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObjectDeleteSequential removes the object's n = 15 chunks
// one RPC at a time: n·d.
func BenchmarkObjectDeleteSequential(b *testing.B) { benchObjectDelete(b, WithConcurrency(1)) }

// BenchmarkObjectDeleteParallel is the same Delete on the default
// engine: the removals fan out, and the stripe costs one delay d.
func BenchmarkObjectDeleteParallel(b *testing.B) { benchObjectDelete(b) }

// BenchmarkFirstKDecodeUnderStraggler measures the degraded-read
// decode path with one surviving parity node 100× slower than the
// rest: first-k termination decodes from the 13 prompt shards and
// cancels the straggler, so the extra latency never lands on the
// read. (On the sequential engine the same read would serialise
// behind the straggler.)
func BenchmarkFirstKDecodeUnderStraggler(b *testing.B) {
	backend := lanBackend()
	store := benchDelayedStore(b, backend)
	store.CrashNode(2)                           // force Case 2 for block 2
	backend.SetNodeDelay(9, 20*time.Millisecond) // parity shard 9 lags
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.ReadBlock(context.Background(), 1, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnhedgedReadTailLatency is the no-hedging baseline of
// BenchmarkHedgedReadTailLatency: healthy reads under the same
// heavy-tailed per-node delay (uniform 100µs–8ms), where a slow draw
// on a needed node lands directly on the read latency.
func BenchmarkUnhedgedReadTailLatency(b *testing.B) {
	store := benchDelayedStore(b,
		NewSimBackend(WithUniformNodeDelay(100*time.Microsecond, 8*time.Millisecond, 7)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.ReadBlock(context.Background(), 1, i%8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHedgedReadTailLatency measures healthy reads under a heavy-
// tailed per-node delay (uniform 100µs–8ms) with adaptive hedging at
// the 0.25 window quantile (floored at 500µs) — aggressive on purpose,
// since under this distribution most of a read's latency is one slow
// draw and a fresh draw usually lands first. Reported: how many RPCs
// the run hedged.
func BenchmarkHedgedReadTailLatency(b *testing.B) {
	store := benchDelayedStore(b,
		NewSimBackend(WithUniformNodeDelay(100*time.Microsecond, 8*time.Millisecond, 7)),
		WithHedging(500*time.Microsecond, 0.25))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := store.ReadBlock(context.Background(), 1, i%8); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(store.Metrics().HedgedRPCs), "hedgedRPCs")
}

// BenchmarkProtocolAvailabilityAtP measures protocol-level Monte-Carlo
// availability estimation throughput (trials per op) and reports the
// estimates at p = 0.85 next to the closed forms.
func BenchmarkProtocolAvailabilityAtP(b *testing.B) {
	cfg, err := trapezoid.NewConfig(trapezoid.Shape{A: 2, B: 3, H: 1}, 3)
	if err != nil {
		b.Fatal(err)
	}
	pe, err := montecarlo.NewProtocolEstimator(context.Background(), 15, 8, cfg, 512, 3)
	if err != nil {
		b.Fatal(err)
	}
	defer pe.Close()
	const trials = 400
	var res montecarlo.Result
	for i := 0; i < b.N; i++ {
		res, err = pe.EstimateRead(context.Background(), 0.85, trials, int64(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Estimate(), "mcRead@0.85")
	e := availability.ERCParams{Config: cfg, N: 15, K: 8}
	exact, err := availability.ReadERCExact(e, 0.85)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(exact, "exactRead@0.85")
}
