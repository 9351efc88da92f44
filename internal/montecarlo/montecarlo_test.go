package montecarlo

import (
	"context"
	"math"
	"testing"

	"trapquorum/internal/availability"
	"trapquorum/internal/trapezoid"
)

func fig3Config(t testing.TB) trapezoid.Config {
	t.Helper()
	cfg, err := trapezoid.NewConfig(trapezoid.Shape{A: 2, B: 3, H: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

const mcTrials = 60000

// TestEstimateWriteMatchesEq8 validates the structural write estimate
// against the closed form within 3 sigma.
func TestEstimateWriteMatchesEq8(t *testing.T) {
	cfg := fig3Config(t)
	for _, p := range []float64{0.3, 0.5, 0.7, 0.9} {
		res, err := EstimateWrite(cfg, p, mcTrials, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := availability.Write(cfg, p)
		if !res.Within(want, 3) {
			t.Fatalf("p=%v: estimate %v (±%v) vs closed form %v", p, res.Estimate(), res.stdErr(), want)
		}
	}
}

// TestEstimateReadFRMatchesEq10 validates the structural FR read
// estimate against equation (10).
func TestEstimateReadFRMatchesEq10(t *testing.T) {
	cfg := fig3Config(t)
	for _, p := range []float64{0.3, 0.5, 0.7, 0.9} {
		res, err := EstimateReadFR(cfg, p, mcTrials, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := availability.ReadFR(cfg, p)
		if !res.Within(want, 3) {
			t.Fatalf("p=%v: estimate %v vs closed form %v", p, res.Estimate(), want)
		}
	}
}

// TestEstimateReadERCMatchesEq13 validates the eq-13-model estimator
// against the paper's formula, and the protocol-model estimator
// against the exact enumeration.
func TestEstimateReadERCMatchesEq13(t *testing.T) {
	e := availability.ERCParams{Config: fig3Config(t), N: 15, K: 8}
	for _, p := range []float64{0.3, 0.5, 0.7, 0.9} {
		res, err := EstimateReadERC(e, ModelEq13, p, mcTrials, 3)
		if err != nil {
			t.Fatal(err)
		}
		want, err := availability.ReadERC(e, p)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Within(want, 3) {
			t.Fatalf("p=%v: eq13 estimate %v vs formula %v", p, res.Estimate(), want)
		}
		resP, err := EstimateReadERC(e, ModelProtocol, p, mcTrials, 4)
		if err != nil {
			t.Fatal(err)
		}
		wantExact, err := availability.ReadERCExact(e, p)
		if err != nil {
			t.Fatal(err)
		}
		if !resP.Within(wantExact, 3) {
			t.Fatalf("p=%v: protocol estimate %v vs exact %v", p, resP.Estimate(), wantExact)
		}
	}
}

func TestEstimatorValidation(t *testing.T) {
	cfg := fig3Config(t)
	if _, err := EstimateWrite(cfg, -0.1, 10, 1); err == nil {
		t.Fatal("p<0 accepted")
	}
	if _, err := EstimateWrite(cfg, 1.1, 10, 1); err == nil {
		t.Fatal("p>1 accepted")
	}
	bad := availability.ERCParams{Config: cfg, N: 15, K: 9}
	if _, err := EstimateReadERC(bad, ModelEq13, 0.5, 10, 1); err == nil {
		t.Fatal("invalid params accepted")
	}
}

func TestEstimateDeterministicUnderSeed(t *testing.T) {
	cfg := fig3Config(t)
	a, _ := EstimateWrite(cfg, 0.6, 5000, 42)
	b, _ := EstimateWrite(cfg, 0.6, 5000, 42)
	if a.Successes != b.Successes {
		t.Fatal("same seed, different outcome")
	}
}

func TestEdgeProbabilities(t *testing.T) {
	cfg := fig3Config(t)
	if res, _ := EstimateWrite(cfg, 1, 100, 1); res.Estimate() != 1 {
		t.Fatal("p=1 should always succeed")
	}
	if res, _ := EstimateWrite(cfg, 0, 100, 1); res.Estimate() != 0 {
		t.Fatal("p=0 should always fail")
	}
}

// TestProtocolEstimatorAgainstFormulas drives the real implementation
// and compares: reads against the exact protocol-structural value, and
// writes against equation (8) — which must upper-bound the protocol
// (Algorithm 1's initial read is not in the formula).
func TestProtocolEstimatorAgainstFormulas(t *testing.T) {
	cfg := fig3Config(t)
	pe, err := NewProtocolEstimator(context.Background(), 15, 8, cfg, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close()
	e := availability.ERCParams{Config: cfg, N: 15, K: 8}
	const trials = 3000
	for _, p := range []float64{0.5, 0.8, 0.95} {
		res, err := pe.EstimateRead(context.Background(), p, trials, 11)
		if err != nil {
			t.Fatal(err)
		}
		wantExact, err := availability.ReadERCExact(e, p)
		if err != nil {
			t.Fatal(err)
		}
		// Score test: at high p the estimate is often exactly 1, which
		// collapses the Wald interval.
		if !res.WithinScore(wantExact, 4) {
			t.Fatalf("p=%v: protocol read %v vs exact %v (se %v)", p, res.Estimate(), wantExact, res.stdErr())
		}
		wres, err := pe.EstimateWrite(context.Background(), p, trials, 13)
		if err != nil {
			t.Fatal(err)
		}
		eq8 := availability.Write(cfg, p)
		if est := wres.Estimate(); est > eq8+4*wres.stdErr()+1e-9 {
			t.Fatalf("p=%v: protocol write %v exceeds eq8 %v", p, est, eq8)
		}
		// At high p the gap must be negligible.
		if p >= 0.95 {
			if diff := math.Abs(wres.Estimate() - eq8); diff > 0.02 {
				t.Fatalf("p=%v: protocol/formula write gap %v too large", p, diff)
			}
		}
	}
}

func TestProtocolEstimatorValidation(t *testing.T) {
	cfg := fig3Config(t)
	if _, err := NewProtocolEstimator(context.Background(), 15, 9, cfg, 32, 1); err == nil {
		t.Fatal("mismatched n/k accepted")
	}
	pe, err := NewProtocolEstimator(context.Background(), 15, 8, cfg, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pe.Close()
	if _, err := pe.EstimateRead(context.Background(), -1, 10, 1); err == nil {
		t.Fatal("p<0 accepted")
	}
	if _, err := pe.EstimateWrite(context.Background(), 2, 10, 1); err == nil {
		t.Fatal("p>1 accepted")
	}
}

func BenchmarkStructuralReadERC(b *testing.B) {
	cfg, _ := trapezoid.NewConfig(trapezoid.Shape{A: 2, B: 3, H: 1}, 3)
	e := availability.ERCParams{Config: cfg, N: 15, K: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateReadERC(e, ModelProtocol, 0.8, 1000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
