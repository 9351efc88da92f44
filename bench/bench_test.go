package main

import (
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"trapquorum/client"
	"trapquorum/internal/diskstore"
	"trapquorum/internal/nodeengine"
	"trapquorum/transport/tcp"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the program's tables")

func steps(sp spec, seed int64, n int) []step {
	g := newGenerator(sp, 0, seed, newPayloadPool(seed, sp.objectSize))
	out := g.preload()
	for i := 0; i < n; i++ {
		out = append(out, g.next())
	}
	return out
}

func TestGeneratorFollowsSeed(t *testing.T) {
	for _, sp := range specs {
		same := reflect.DeepEqual(steps(sp, 7, 600), steps(sp, 7, 600))
		if !same {
			t.Errorf("%s: the same seed gave two different step sequences", sp.name)
		}
		if reflect.DeepEqual(steps(sp, 7, 600), steps(sp, 8, 600)) {
			t.Errorf("%s: seeds 7 and 8 gave the same step sequence", sp.name)
		}
	}
}

func TestChurnKeepsLiveSetConstant(t *testing.T) {
	sp, _ := specByName("churn-small")
	g := newGenerator(sp, 0, 3, newPayloadPool(3, sp.objectSize))
	want := len(g.live)
	deleted := make(map[string]bool)
	for cycle := 0; cycle < 2000; cycle++ {
		put, get, del := g.next(), g.next(), g.next()
		if put.kind != opWrite || get.kind != opRead || del.kind != opDelete {
			t.Fatalf("cycle %d is %d/%d/%d, want write/read/delete", cycle, put.kind, get.kind, del.kind)
		}
		if deleted[get.key] {
			t.Fatalf("cycle %d reads %s after its delete", cycle, get.key)
		}
		deleted[del.key] = true
		if len(g.live) != want {
			t.Fatalf("after cycle %d the live set holds %d keys, want %d", cycle, len(g.live), want)
		}
	}
	if first := objectKey(0, 0); !deleted[first] {
		t.Errorf("the oldest key %s was never deleted: churn is not FIFO", first)
	}
}

func TestMixIsExactlySeventyThirty(t *testing.T) {
	sp, _ := specByName("update-mix")
	g := newGenerator(sp, 1, 5, newPayloadPool(5, sp.objectSize))
	for ten := 0; ten < 100; ten++ {
		reads := 0
		for i := 0; i < 10; i++ {
			st := g.next()
			if st.kind == opRead {
				reads++
			}
			if clientOfKey(st.key) != 1 {
				t.Fatalf("client 1 was handed %s, another client's key", st.key)
			}
		}
		if reads != readsPerTen {
			t.Fatalf("ops %d..%d hold %d reads, want %d", 10*ten, 10*ten+9, reads, readsPerTen)
		}
	}
}

func sliceOf(rate, steal float64, writes ...float64) slice {
	s := slice{rate: rate, steal: steal}
	s.lat[opWrite] = writes
	return s
}

func TestEstimateDropsStolenSlices(t *testing.T) {
	slices := []slice{
		sliceOf(100, 0.00, 1, 2, 3),
		sliceOf(50, 0.20, 9, 9, 9), // stolen: must not pull the estimates
		sliceOf(110, 0.01, 2, 3, 4),
		sliceOf(40, 0.06, 9, 9, 9), // stolen
		sliceOf(120, 0.05, 3, 4, 5),
		sliceOf(130, 0.00, 4, 5, 6),
	}
	e := estimate(slices)
	if e.flagged || e.quiet != 4 {
		t.Fatalf("quiet = %d flagged = %v, want 4 quiet slices and no flag", e.quiet, e.flagged)
	}
	if e.opsPerS != 115 { // median of 100 110 120 130
		t.Errorf("ops_per_s = %v, want the median quiet slice rate 115", e.opsPerS)
	}
	if e.p50[opWrite] != 3.5 { // median of slice medians 2 3 4 5
		t.Errorf("write p50 = %v, want the median of slice medians 3.5", e.p50[opWrite])
	}
	if e.p50[opDelete] != 0 {
		t.Errorf("delete p50 = %v with no delete samples, want 0", e.p50[opDelete])
	}
}

func TestEstimateFallsBackWhenFewSlicesAreQuiet(t *testing.T) {
	slices := []slice{
		sliceOf(100, 0.30, 1), sliceOf(110, 0.30, 2), sliceOf(120, 0.00, 3),
		sliceOf(130, 0.30, 4), sliceOf(140, 0.02, 5), sliceOf(150, 0.30, 6),
	}
	e := estimate(slices)
	if !e.flagged {
		t.Fatal("two quiet slices out of six: the run must be flagged")
	}
	if e.quiet != 2 {
		t.Errorf("quiet = %d, want 2 reported even though all six were used", e.quiet)
	}
	if e.opsPerS != 125 || e.p50[opWrite] != 3.5 {
		t.Errorf("ops_per_s = %v write p50 = %v, want all six slices used (125, 3.5)", e.opsPerS, e.p50[opWrite])
	}
}

func TestCutWindowSnapsSlicesToOpBoundaries(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// One client, 400 ms ops, 1 s slices: an op straddles every nominal
	// boundary, and a fixed cut would count 2, 3, 2, 3 … ops per slice.
	var samples []sample
	for i := 0; i < 10; i++ {
		samples = append(samples, sample{kind: opRead, start: at(400 * i), end: at(400 * (i + 1)), ok: true})
	}
	slices := cutWindow([][]sample{samples}, []time.Time{t0}, time.Second, 3)
	for k, s := range slices {
		if math.Abs(s.rate-2.5) > 1e-9 {
			t.Errorf("slice %d rate = %v, want 2.5 ops/s exactly", k, s.rate)
		}
	}
	if got := len(slices[0].lat[opRead]); got != 3 {
		t.Errorf("slice 0 holds %d samples, want the 3 ops that end by 1.2 s", got)
	}
}

func TestUnionOf(t *testing.T) {
	length, pieces := unionOf([]interval{{10, 20}, {15, 30}, {40, 50}, {0, 5}, {50, 55}})
	if length != 5+20+15 || pieces != 3 {
		t.Errorf("union = %d in %d pieces, want 40 in 3", length, pieces)
	}
	if length, pieces := unionOf(nil); length != 0 || pieces != 0 {
		t.Errorf("empty union = %d in %d pieces", length, pieces)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, q := tail(xs); q != 0.90 {
		t.Errorf("150 samples support q = %v, want 0.90", q)
	}
	if _, q := tail(xs[:99]); q != 0 {
		t.Errorf("99 samples support q = %v, want none", q)
	}
	if _, q := tail(append(xs, make([]float64, 850)...)); q != 0.99 {
		t.Errorf("1000 samples support q = %v, want 0.99", q)
	}
}

// miniature shrinks a workload to a second or two: fewer objects, the
// same shapes, paths, mix and phases.
func miniature(sp spec) spec {
	switch {
	case sp.stream:
		sp.objects = 4
	case sp.churn:
		sp.objects = 48
	default:
		sp.objects, sp.tailDelete = 16, 4
	}
	return sp
}

func runMiniature(t *testing.T, sp spec, traced bool, window time.Duration) *runResult {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := runWorkload(ctx, runConfig{
		sp: miniature(sp), seed: 11, window: window, warmup: 100 * time.Millisecond,
		traced: traced, setups: 1, dataBase: dataBase(), outDir: t.TempDir(),
	})
	if err != nil {
		t.Fatalf("%s: %v", sp.name, err)
	}
	if res.Failed != 0 || !res.Correct {
		t.Fatalf("%s: %d of %d ops failed", sp.name, res.Failed, res.Attempted)
	}
	return res
}

// TestMiniatureWorkloads runs a one-second traced miniature of every
// workload end to end — preload, window, tail deletes or rebuild,
// restart verification — and checks that nothing fails, that the traced
// run reports exactly the declared per-layer metrics, and that the
// decorators kept the stack's behaviour: the engines still stage through
// group commit, and the bulk-stream drain still installs epochs.
func TestMiniatureWorkloads(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			res := runMiniature(t, sp, true, time.Second)
			for _, d := range perLayer {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s is missing", d.name)
				}
			}
			for name, m := range res.Metrics {
				if m.Unit == "undeclared" {
					t.Errorf("metric %s is reported but not declared in perLayer", name)
				}
			}
			if got := res.Metrics["diskstore.staged_share"].Value; got != 1 {
				t.Errorf("diskstore.staged_share = %v: behind the S5 decorator the engine stopped staging through group commit", got)
			}
			for _, kind := range []string{"write", "read", "delete"} {
				if gap := res.Metrics["trace.budget_gap_"+kind].Value; gap < -0.5 || gap > 0.5 {
					t.Errorf("layer self times of %s miss its latency by %.0f%%", kind, 100*gap)
				}
			}
			if sp.rebuild {
				if res.Metrics["service.epoch_installs"].Value == 0 {
					t.Error("no SetEpoch reached a node during the drain: a decorator dropped client.EpochSetter")
				}
				if res.Metrics["service.drain_mb_per_s"].Value <= 0 || res.Metrics["service.repair_mb_per_s"].Value <= 0 {
					t.Error("the rebuild phase reported no repair or drain rate")
				}
			}
		})
	}
}

func TestUntracedRunReportsEveryEndToEndMetric(t *testing.T) {
	sp, _ := specByName("churn-small")
	res := runMiniature(t, sp, false, time.Second)
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("%d metrics reported, %d declared", len(res.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		m, ok := res.Metrics[d.name]
		if !ok || m.Value <= 0 || m.Unit != d.unit {
			t.Errorf("%s = %+v, want a positive value in %s", d.name, m, d.unit)
		}
	}
}

// TestDecoratorsKeepOptionalInterfaces pins, type by type, the optional
// interfaces the program asserts for behind each seam.
func TestDecoratorsKeepOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	ds, err := diskstore.Open(t.TempDir(), diskstore.WithGroupCommit(-1, 0))
	if err != nil {
		t.Fatal(err)
	}
	var store nodeengine.ChunkStore = &tracedStore{inner: ds, tr: tr}
	if bs, ok := store.(nodeengine.BatchStore); !ok || !bs.Batching() {
		t.Error("S5: the wrapped diskstore no longer reports Batching()")
	}
	if _, ok := store.(nodeengine.Scanner); !ok {
		t.Error("S5: the wrapped diskstore lost nodeengine.Scanner")
	}
	engine := nodeengine.New(store)
	defer engine.Close()

	var svc tcp.Service = &tracedService{inner: engine, tr: tr}
	if _, ok := svc.(client.EpochSetter); !ok {
		t.Error("S4: the wrapped engine lost client.EpochSetter")
	}
	if _, ok := svc.(interface{ EpochGuard(uint64) error }); !ok {
		t.Error("S4: the wrapped engine lost its epoch guard")
	}

	var nc client.NodeClient = &tracedNodeClient{inner: engine, tr: tr}
	es, ok := nc.(client.EpochSetter)
	if !ok {
		t.Fatal("S3: the wrapped node client lost client.EpochSetter")
	}
	ctx := context.Background()
	if err := es.SetEpoch(ctx, 2, 1, []byte("blob")); err != nil {
		t.Fatalf("S3: SetEpoch through the decorators: %v", err)
	}
	if installed, retired, _, err := es.EpochState(ctx); err != nil || installed != 2 || retired != 1 {
		t.Errorf("S3: EpochState = %d, %d, %v; want 2, 1", installed, retired, err)
	}
}

// TestTraceOverheadOnUpdateMix pins that tracing costs the CPU-bound
// workload less than a tenth of its throughput. Throughput over two
// seconds is noisy, so the best of three attempts counts.
func TestTraceOverheadOnUpdateMix(t *testing.T) {
	if testing.Short() {
		t.Skip("times two runs per attempt")
	}
	sp, _ := specByName("update-mix")
	var overheads []float64
	for attempt := 0; attempt < 3; attempt++ {
		plain := runMiniature(t, sp, false, 2*time.Second).Metrics["ops_per_s"].Value
		traced := runMiniature(t, sp, true, 2*time.Second).Metrics["trace.ops_per_s"].Value
		overhead := 1 - traced/plain
		if overhead < 0.10 {
			return
		}
		overheads = append(overheads, overhead)
	}
	t.Errorf("trace.overhead_frac = %v in three attempts, want below 0.10", overheads)
}

// benchmarkJSON is the shape of BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string        `json:"command"`
	Paths      []string        `json:"paths"`
	RunSeconds int             `json:"run_seconds"`
	Workloads  []jsonWorkload  `json:"workloads"`
	EndToEnd   []jsonMetricDef `json:"end_to_end"`
	PerLayer   []jsonLayerDef  `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonMetricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonLayerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func benchmarkJSONFromTables() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: defaultSeconds,
	}
	for _, sp := range specs {
		b.Workloads = append(b.Workloads, jsonWorkload{sp.name, sp.why})
	}
	for _, d := range endToEnd {
		b.EndToEnd = append(b.EndToEnd, jsonMetricDef{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer {
		b.PerLayer = append(b.PerLayer, jsonLayerDef{d.name, d.unit, d.better})
	}
	return b
}

// TestBenchmarkJSONMatchesTables pins BENCHMARK.json to the tables the
// program reports from, and to the limits the CI driver places on the
// file. `go test -run BenchmarkJSON -update` rewrites the file.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want := benchmarkJSONFromTables()
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkJSON
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; run `go test -run BenchmarkJSON -update`")
	}
	if len(want.Workloads) < 2 || len(want.Workloads) > 8 || len(want.EndToEnd) > 16 || len(want.PerLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics: outside the driver's limits",
			len(want.Workloads), len(want.EndToEnd), len(want.PerLayer))
	}
	names := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if names[d.name] || len(d.name) > 64 || len(d.unit) > 16 {
			t.Errorf("metric %q (%s): name repeated or too long", d.name, d.unit)
		}
		names[d.name] = true
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
	}
	for _, sp := range specs {
		if len(sp.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", sp.name, len(sp.why))
		}
	}
}
