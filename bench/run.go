package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostInfo explains a noisy run.
type hostInfo struct {
	Nproc       int     `json:"nproc"`
	Media       string  `json:"media"`
	StealFrac   float64 `json:"steal_frac"`
	QuietSlices int     `json:"quiet_slices"`
	Slices      int     `json:"slices"`
	Flagged     bool    `json:"flagged"` // fewer than three quiet slices: every slice was used
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Host      hostInfo          `json:"host"`
	// Paper compares stored_bytes_per_user_byte with the paper's own
	// storage costs: eq. 15's n/k for TRAP-ERC, eq. 14's n-k+1 for the
	// full-replication baseline.
	Paper struct {
		Eq15NOverK    float64 `json:"eq15_n_over_k"`
		Eq14NMinusKP1 float64 `json:"eq14_n_minus_k_plus_1"`
	} `json:"paper"`
}

// runConfig is one run's inputs. Only the workload, the seed, the
// window and tracing come from the command line; the rest is fixed by
// main and shortened by the tests.
type runConfig struct {
	sp       spec
	seed     int64
	window   time.Duration
	warmup   time.Duration
	traced   bool
	setups   int    // how many times the set-up is built and timed; the last is kept
	dataBase string // node directories are created under a fresh directory here
	outDir   string // where a traced run writes <workload>.trace.json
}

// window is what the measured interval yielded.
type window struct {
	perClient [][]sample
	starts    []time.Time
	steal     []float64
	wall      time.Duration

	wireBytes, gatewayBytes int64
	moved                   float64 // user payload bytes moved while the byte counters ran
	core                    coreCounters
	engine                  engineCounters
	gwOverloads             int64
	cpu                     time.Duration
	mallocs, allocBytes     uint64
	gcPause                 time.Duration
}

func (w *window) samples() []sample {
	var all []sample
	for _, s := range w.perClient {
		all = append(all, s...)
	}
	return all
}

// userBytes is the payload a completed op moved for its caller.
func userBytes(sp spec, s sample) int64 {
	if !s.ok || s.kind == opDelete {
		return 0
	}
	if sp.churn {
		return int64(sp.objectSize)
	}
	return int64(sp.blockSize)
}

// movedBetween is the user payload moved during [from, to]. An op
// straddling either end counts by the share of its duration inside, so
// the byte ratios do not wobble by an op (4 MiB on bulk-stream) with
// where the counter readings happen to fall.
func movedBetween(sp spec, perClient [][]sample, from, to time.Time) float64 {
	var total float64
	for _, samples := range perClient {
		for _, s := range samples {
			a, b := s.start, s.end
			if a.Before(from) {
				a = from
			}
			if b.After(to) {
				b = to
			}
			if d := s.end.Sub(s.start); d > 0 && b.After(a) {
				total += float64(userBytes(sp, s)) * float64(b.Sub(a)) / float64(d)
			}
		}
	}
	return total
}

type run struct {
	sp      spec
	st      *stack
	tr      *tracer
	workers []*worker

	attempted, failed int
}

func (r *run) count(s sample) sample {
	r.attempted++
	if !s.ok {
		r.failed++
	}
	return s
}

// runWorkload performs one complete run: set-up (several times, the
// last kept), warm-up, the measured window, the phases after it, and
// the restart verification.
func runWorkload(ctx context.Context, cfg runConfig) (*runResult, error) {
	sp, seed, traced := cfg.sp, cfg.seed, cfg.traced
	if err := os.MkdirAll(cfg.dataBase, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(cfg.dataBase, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	media := fsName(root)

	r := &run{sp: sp}
	if traced {
		r.tr = newTracer()
	}
	pool := newPayloadPool(seed, sp.objectSize)

	var setups []float64
	for rep := 0; rep < cfg.setups; rep++ {
		dir := filepath.Join(root, fmt.Sprintf("setup%d", rep))
		if r.st != nil {
			if err := r.st.close(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", rep-1, err)
			}
			os.RemoveAll(r.st.cluster.root)
		}
		begin := time.Now()
		if r.st, err = startStack(ctx, sp, dir, r.tr); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", rep, err)
		}
		r.workers = r.workers[:0]
		for c := 0; c < sp.clients; c++ {
			r.workers = append(r.workers, newWorker(sp, c, r.st.apis[c], seed, pool, r.tr))
		}
		r.preload(ctx)
		setups = append(setups, time.Since(begin).Seconds())
		logf("%s: set-up %d/%d took %.3f s", sp.name, rep+1, cfg.setups, setups[rep])
	}
	defer func() { r.st.close() }()

	if sp.delay > 0 {
		r.st.cluster.setDelay(sp.delay)
	}
	win := r.measure(ctx, cfg.warmup, cfg.window)
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("run abandoned during the window: %w", err)
	}
	for _, s := range win.samples() {
		r.count(s)
	}
	slices := cutWindow(win.perClient, win.starts, cfg.window/windowSlices, windowSlices)
	for k := range slices {
		slices[k].steal = win.steal[k]
	}
	est := estimate(slices)
	for k, s := range slices {
		logf("%s: slice %d: %.1f ops/s, steal %.1f%%, p50 write %.3f read %.3f delete %.3f ms", sp.name, k, s.rate,
			100*s.steal, median(s.lat[opWrite]), median(s.lat[opRead]), median(s.lat[opDelete]))
	}

	var tailDeletes []sample
	if sp.tailDelete > 0 {
		tailDeletes = r.deleteTail(ctx)
	}
	// The rebuild phase yields per-layer metrics only, so only the
	// traced run, which reports those, spends the time on it.
	var rebuilt *rebuild
	if sp.rebuild && traced {
		if rebuilt, err = r.rebuild(ctx); err != nil {
			return nil, err
		}
	}

	if r.tr != nil {
		r.tr.on.Store(false) // the verification reads below are not part of the workload
	}

	// Durability across restart: stop every node, weigh the
	// directories, reopen each node from its directory on its old
	// port, and read back every live object.
	if err := r.st.cluster.stop(); err != nil {
		return nil, fmt.Errorf("stopping nodes: %w", err)
	}
	stored, err := r.st.cluster.storedBytes()
	if err != nil {
		return nil, err
	}
	if err := r.st.cluster.restart(); err != nil {
		return nil, fmt.Errorf("restarting nodes: %w", err)
	}
	var liveBytes int64
	for _, w := range r.workers {
		for _, key := range w.liveKeys() {
			liveBytes += int64(sp.objectSize)
			r.count(w.do(ctx, step{kind: opRead, key: key, block: -1}))
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("run abandoned: %w", err)
	}

	res := &runResult{
		Workload: sp.name, Seed: seed, Seconds: cfg.window.Seconds(), Traced: traced,
		Attempted: r.attempted, Failed: r.failed, Correct: r.failed == 0,
		Metrics: make(map[string]metric),
		Host: hostInfo{
			Nproc: runtime.NumCPU(), Media: media, StealFrac: mean(win.steal),
			QuietSlices: est.quiet, Slices: windowSlices, Flagged: est.flagged,
		},
	}
	res.Paper.Eq15NOverK = float64(codeN) / float64(codeK)
	res.Paper.Eq14NMinusKP1 = float64(codeN - codeK + 1)

	deleteP50 := est.p50[opDelete]
	if len(tailDeletes) > 0 {
		deleteP50 = median(latencies(tailDeletes, opDelete))
	}
	e2e := map[string]metric{
		"setup_s":                    {median(setups), "s"},
		"ops_per_s":                  {est.opsPerS, "1/s"},
		"write_p50_ms":               {est.p50[opWrite], "ms"},
		"delete_p50_ms":              {deleteP50, "ms"},
		"wire_bytes_per_user_byte":   {float64(win.wireBytes) / win.moved, "B/B"},
		"stored_bytes_per_user_byte": {float64(stored) / float64(liveBytes), "B/B"},
	}
	if !traced {
		res.Metrics = e2e
		return res, nil
	}

	spans := r.tr.drain()
	in := &layerInput{
		sp: sp, win: win, est: est, e2e: e2e,
		ops:    append(win.samples(), tailDeletes...),
		spans:  spans,
		tracer: r.tr,
	}
	if rebuilt != nil {
		in.rebuilt = rebuilt
		in.ops = append(in.ops, rebuilt.samples...)
	}
	res.Metrics = layerMetrics(in)
	if err := writeTrace(cfg.outDir, in); err != nil {
		return nil, err
	}
	return res, nil
}

// preload builds the working set: every client writes its own keys.
func (r *run) preload(ctx context.Context) {
	results := make([][]sample, len(r.workers))
	var wg sync.WaitGroup
	for i, w := range r.workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			for _, st := range w.gen.preload() {
				results[i] = append(results[i], w.do(ctx, st))
			}
		}(i, w)
	}
	wg.Wait()
	for _, ss := range results {
		for _, s := range ss {
			r.count(s)
		}
	}
}

// measure runs every client closed-loop: unmeasured until the warm-up
// deadline, then measured for the window. Each client enters and
// leaves the window at one of its own op boundaries.
func (r *run) measure(ctx context.Context, warmup, length time.Duration) *window {
	win := &window{
		perClient: make([][]sample, len(r.workers)),
		starts:    make([]time.Time, len(r.workers)),
	}
	t0 := time.Now().Add(warmup)
	all := make([][]sample, len(r.workers)) // warm-up ops included
	var wg sync.WaitGroup
	for i, w := range r.workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			for ctx.Err() == nil {
				s := w.do(ctx, w.gen.next())
				all[i] = append(all[i], s)
				if win.starts[i].IsZero() {
					if !s.end.Before(t0) {
						win.starts[i] = s.end
					}
					continue
				}
				win.perClient[i] = append(win.perClient[i], s)
				if s.end.Sub(win.starts[i]) >= length {
					return
				}
			}
		}(i, w)
	}

	time.Sleep(time.Until(t0))
	if r.tr != nil {
		r.tr.on.Store(true)
	}
	before := r.counters()
	win.steal = sampleSteal(t0, length/windowSlices, windowSlices)
	after := r.counters()
	win.wall = after.at.Sub(before.at)
	win.wireBytes = after.wire - before.wire
	win.gatewayBytes = after.gateway - before.gateway
	win.core = after.core.minus(before.core)
	win.engine = engineCounters{
		versionQueries: after.engine.versionQueries - before.engine.versionQueries,
		versionRejects: after.engine.versionRejects - before.engine.versionRejects,
	}
	win.gwOverloads = after.gwOverloads - before.gwOverloads
	win.cpu = after.cpu - before.cpu
	win.mallocs = after.mem.Mallocs - before.mem.Mallocs
	win.allocBytes = after.mem.TotalAlloc - before.mem.TotalAlloc
	win.gcPause = time.Duration(after.mem.PauseTotalNs - before.mem.PauseTotalNs)
	wg.Wait()
	win.moved = movedBetween(r.sp, all, before.at, after.at)
	return win
}

func (a coreCounters) minus(b coreCounters) coreCounters {
	return coreCounters{a.failedWrites - b.failedWrites, a.directReads - b.directReads,
		a.decodeReads - b.decodeReads, a.rollbacks - b.rollbacks, a.hedged - b.hedged}
}

// counters is one reading of every cumulative counter the window
// reports as a delta.
type counters struct {
	at            time.Time
	wire, gateway int64
	core          coreCounters
	engine        engineCounters
	gwOverloads   int64
	cpu           time.Duration
	mem           runtime.MemStats
}

func (r *run) counters() counters {
	c := counters{at: time.Now(), wire: r.st.cluster.wireBytes(), core: r.st.coreCounters(), engine: r.st.cluster.engineCounters()}
	if r.st.gw != nil {
		c.gateway = r.st.gwLn.bytes.Load()
		c.gwOverloads = r.st.gw.Stats().Overloads
	}
	c.cpu = processCPU()
	if r.tr != nil { // ReadMemStats stops the world; only the traced run pays it
		runtime.ReadMemStats(&c.mem)
	}
	return c
}

// processCPU is the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// deleteTail deletes part of each mix client's key set, one op at a
// time, so the mix workloads report a delete latency at their own
// object shape (four stripes; with the injected delay on
// wan-update-mix).
func (r *run) deleteTail(ctx context.Context) []sample {
	var out []sample
	per := r.sp.tailDelete / len(r.workers)
	for _, w := range r.workers {
		for _, key := range w.gen.keys[:per] {
			out = append(out, r.count(w.do(ctx, step{kind: opDelete, key: key, block: -1})))
		}
	}
	return out
}

// rebuild is the outcome of bulk-stream's phase after the window.
type rebuild struct {
	repairMBps []float64 // one per node repaired
	drainMBps  float64
	samples    []sample // one opRepair per node, one opDrain
}

// rebuild wipes and repairs every node in turn, then grows the cluster
// and recodes every object. Nothing else runs meanwhile.
func (r *run) rebuild(ctx context.Context) (*rebuild, error) {
	out := &rebuild{}
	w := r.workers[0]
	for j := 0; j < clusterNodes; j++ {
		if err := r.st.cluster.nodes[j].engine.Wipe(ctx); err != nil { // a media replacement
			return nil, fmt.Errorf("wiping node %d: %w", j, err)
		}
		var chunks int
		s := w.phase(ctx, opRepair, func(ctx context.Context) error {
			var err error
			chunks, err = r.st.fleet.RepairClusterNode(ctx, j)
			return err
		})
		out.samples = append(out.samples, r.count(s))
		out.repairMBps = append(out.repairMBps, float64(chunks)*float64(r.sp.blockSize)/1e6/s.end.Sub(s.start).Seconds())
	}
	var live int64
	for _, w := range r.workers {
		live += int64(len(w.liveKeys())) * int64(r.sp.objectSize)
	}
	s := w.phase(ctx, opDrain, func(ctx context.Context) error { return r.st.growAndRecode(ctx) })
	out.samples = append(out.samples, r.count(s))
	out.drainMBps = float64(live) / 1e6 / s.end.Sub(s.start).Seconds()
	logf("%s: repaired %d nodes at median %.1f MB/s, drained %.1f MB at %.1f MB/s", r.sp.name,
		clusterNodes, median(out.repairMBps), float64(live)/1e6, out.drainMBps)
	return out, nil
}

// phase times a maintenance call as a client op of its own kind, so
// its RPCs are attributed to it.
func (w *worker) phase(ctx context.Context, kind uint8, fn func(context.Context) error) sample {
	s := sample{kind: kind}
	if w.tr != nil {
		s.op, ctx = w.tr.beginOp(ctx, w.idx)
		defer w.tr.endOp(w.idx)
	}
	s.start = time.Now()
	err := fn(ctx)
	s.end = time.Now()
	s.ok = err == nil
	if err != nil {
		logf("%s: %s: %v", w.sp.name, opNames[kind], err)
	}
	return s
}

func latencies(samples []sample, kind uint8) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok && s.kind == kind {
			out = append(out, ms(s.end.Sub(s.start)))
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
