package latency

import (
	"context"
	"strings"
	"testing"
	"time"

	"trapquorum/internal/sim"
	"trapquorum/internal/trapezoid"
)

func testConfig(t testing.TB, delay sim.DelayFunc, ops int) Config {
	t.Helper()
	tcfg, err := trapezoid.NewConfig(trapezoid.Shape{A: 2, B: 3, H: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		N: 15, K: 8,
		Trapezoid: tcfg,
		BlockSize: 512,
		Delay:     delay,
		Ops:       ops,
		Seed:      3,
	}
}

func TestMeasureValidation(t *testing.T) {
	cfg := testConfig(t, nil, 0)
	if _, err := Measure(context.Background(), cfg); err == nil {
		t.Fatal("ops=0 accepted")
	}
	cfg = testConfig(t, nil, 5)
	cfg.K = 20
	if _, err := Measure(context.Background(), cfg); err == nil {
		t.Fatal("invalid code accepted")
	}
}

// TestLatencyOrdering checks the structural ordering a fixed per-op
// delay must produce: degraded reads touch more nodes than healthy
// reads, and quorum writes touch the most. Node count is latency only
// on the sequential engine (sum of nodes); the concurrent one pays the
// slowest node of each round, which puts a degraded read within timer
// jitter of a healthy one.
func TestLatencyOrdering(t *testing.T) {
	cfg := testConfig(t, sim.FixedDelay(200*time.Microsecond), 25)
	cfg.Concurrency = 1
	rep, err := Measure(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	healthy := rep.Samples[HealthyRead].Percentile(0.5)
	degraded := rep.Samples[DegradedRead].Percentile(0.5)
	write := rep.Samples[QuorumWrite].Percentile(0.5)
	if healthy <= 0 || degraded <= 0 || write <= 0 {
		t.Fatalf("non-positive latencies: %v %v %v", healthy, degraded, write)
	}
	if degraded <= healthy {
		t.Fatalf("degraded read p50 %v <= healthy %v", degraded, healthy)
	}
	if write <= healthy {
		t.Fatalf("write p50 %v <= healthy read %v", write, healthy)
	}
	// Sanity: healthy read needs at least 3 node ops (2 version
	// checks + 1 data fetch) at 200µs each.
	if healthy < 500e-6 {
		t.Fatalf("healthy read p50 %v implausibly low", healthy)
	}
}

func TestZeroDelayStillMeasures(t *testing.T) {
	cfg := testConfig(t, nil, 10)
	rep, err := Measure(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []Scenario{HealthyRead, DegradedRead, QuorumWrite} {
		s := rep.Samples[sc]
		if len(s.Seconds) != 10 {
			t.Fatalf("%s: %d samples", sc, len(s.Seconds))
		}
		if s.Summary().Mean < 0 {
			t.Fatalf("%s: negative mean", sc)
		}
	}
}

func TestReportTable(t *testing.T) {
	cfg := testConfig(t, nil, 5)
	rep, err := Measure(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	table := rep.Table()
	for _, want := range []string{"healthy-read", "degraded-read", "quorum-write", "p99(ms)"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

func BenchmarkMeasureNoDelay(b *testing.B) {
	cfg := testConfig(b, nil, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Measure(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
