// Package latency measures end-to-end operation latency distributions
// of the protocol under a per-node delay model: healthy quorum reads
// (Case 1), degraded reads that decode (Case 2), and quorum writes.
// The paper evaluates availability only; this harness adds the
// latency dimension a storage operator would ask about, driven by the
// same simulated cluster with an injected per-operation delay.
package latency

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"trapquorum/internal/core"
	"trapquorum/internal/erasure"
	"trapquorum/internal/sim"
	"trapquorum/internal/stats"
	"trapquorum/internal/trapezoid"
)

// Config parameterises a measurement run.
type Config struct {
	N, K      int
	Trapezoid trapezoid.Config
	BlockSize int
	// Delay is the per-node-operation latency model (e.g.
	// sim.FixedDelay(200*time.Microsecond) to emulate a LAN RPC).
	Delay sim.DelayFunc
	// Ops is the number of operations measured per scenario.
	Ops  int
	Seed int64
	// Concurrency bounds the in-flight per-node RPCs of one quorum
	// operation (0 = all at once, 1 = the sequential engine; see
	// core.Options). Comparing 1 against 0 under a fixed per-node
	// delay is the sum-of-nodes vs max-of-level experiment.
	Concurrency int
	// Hedge enables tail-latency hedging of read-path RPCs (see
	// core.HedgeConfig).
	Hedge core.HedgeConfig
}

// Scenario names one measured operation type.
type Scenario string

// Measured scenarios.
const (
	HealthyRead  Scenario = "healthy-read"
	DegradedRead Scenario = "degraded-read"
	QuorumWrite  Scenario = "quorum-write"
)

// Sample is the latency distribution of one scenario.
type Sample struct {
	Scenario Scenario
	Seconds  []float64
}

// Summary returns moment statistics of the sample.
func (s Sample) Summary() stats.Summary { return stats.Summarize(s.Seconds) }

// Percentile returns the q-quantile in seconds.
func (s Sample) Percentile(q float64) float64 { return stats.Percentile(s.Seconds, q) }

// Report holds all scenarios of one run.
type Report struct {
	Config  Config
	Samples map[Scenario]Sample
}

// Measure runs the three scenarios on a fresh simulated cluster.
func Measure(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Ops < 1 {
		return nil, fmt.Errorf("latency: need ops >= 1, got %d", cfg.Ops)
	}
	code, err := erasure.New(cfg.N, cfg.K)
	if err != nil {
		return nil, err
	}
	cluster, err := sim.NewCluster(cfg.N, sim.WithDelay(cfg.Delay))
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	nodes := make([]core.NodeClient, cfg.N)
	st := core.Stripe{ID: 1, Nodes: make([]int, cfg.N), BlockSize: cfg.BlockSize}
	for j := 0; j < cfg.N; j++ {
		nodes[j] = cluster.Node(j)
		st.Nodes[j] = j
	}
	sys, err := core.NewSystem(code, cfg.Trapezoid, nodes, core.Options{
		Concurrency: cfg.Concurrency,
		Hedge:       cfg.Hedge,
	})
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	data := make([][]byte, cfg.K)
	for i := range data {
		data[i] = make([]byte, cfg.BlockSize)
		r.Read(data[i])
	}
	if err := sys.SeedStripe(ctx, st, data); err != nil {
		return nil, err
	}
	report := &Report{Config: cfg, Samples: make(map[Scenario]Sample)}

	// Healthy reads: Case 1 (data node serves directly).
	healthy := make([]float64, 0, cfg.Ops)
	for i := 0; i < cfg.Ops; i++ {
		block := r.Intn(cfg.K)
		start := time.Now()
		if _, _, err := sys.ReadBlock(ctx, st, block); err != nil {
			return nil, fmt.Errorf("latency: healthy read: %w", err)
		}
		healthy = append(healthy, time.Since(start).Seconds())
	}
	report.Samples[HealthyRead] = Sample{Scenario: HealthyRead, Seconds: healthy}

	// Quorum writes.
	writes := make([]float64, 0, cfg.Ops)
	buf := make([]byte, cfg.BlockSize)
	for i := 0; i < cfg.Ops; i++ {
		block := r.Intn(cfg.K)
		r.Read(buf)
		start := time.Now()
		if err := sys.WriteBlock(ctx, st, block, buf); err != nil {
			return nil, fmt.Errorf("latency: write: %w", err)
		}
		writes = append(writes, time.Since(start).Seconds())
	}
	report.Samples[QuorumWrite] = Sample{Scenario: QuorumWrite, Seconds: writes}

	// Degraded reads: crash one data node, read its block (Case 2).
	victim := 0
	cluster.Crash(victim)
	degraded := make([]float64, 0, cfg.Ops)
	for i := 0; i < cfg.Ops; i++ {
		start := time.Now()
		if _, _, err := sys.ReadBlock(ctx, st, victim); err != nil {
			return nil, fmt.Errorf("latency: degraded read: %w", err)
		}
		degraded = append(degraded, time.Since(start).Seconds())
	}
	report.Samples[DegradedRead] = Sample{Scenario: DegradedRead, Seconds: degraded}
	return report, nil
}

// Table renders the report as an aligned percentile table (values in
// milliseconds).
func (r *Report) Table() string {
	out := fmt.Sprintf("%-14s %10s %10s %10s %10s\n", "scenario", "p50(ms)", "p90(ms)", "p99(ms)", "mean(ms)")
	for _, sc := range []Scenario{HealthyRead, DegradedRead, QuorumWrite} {
		s, ok := r.Samples[sc]
		if !ok {
			continue
		}
		out += fmt.Sprintf("%-14s %10.3f %10.3f %10.3f %10.3f\n",
			string(sc),
			1e3*s.Percentile(0.50), 1e3*s.Percentile(0.90), 1e3*s.Percentile(0.99),
			1e3*s.Summary().Mean)
	}
	return out
}
