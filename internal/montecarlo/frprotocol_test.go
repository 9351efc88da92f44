package montecarlo

import (
	"context"
	"testing"

	"trapquorum/internal/availability"
	"trapquorum/internal/trapezoid"
)

// TestFREstimatorMatchesEq10 validates the live full-replication
// protocol against equation (10) for reads and against equation (8)
// as an upper bound for writes.
func TestFREstimatorMatchesEq10(t *testing.T) {
	cfg := fig3Config(t)
	fe, err := NewFREstimator(context.Background(), cfg, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	const trials = 4000
	for _, p := range []float64{0.4, 0.6, 0.8, 0.95} {
		res, err := fe.EstimateRead(context.Background(), p, trials, 21)
		if err != nil {
			t.Fatal(err)
		}
		want := availability.ReadFR(cfg, p)
		if !res.WithinScore(want, 4) {
			t.Fatalf("p=%v: FR read %v vs eq10 %v", p, res.Estimate(), want)
		}
		wres, err := fe.EstimateWrite(context.Background(), p, trials, 23)
		if err != nil {
			t.Fatal(err)
		}
		eq8 := availability.Write(cfg, p)
		if est := wres.Estimate(); est > eq8+4*wres.stdErr()+1e-9 {
			t.Fatalf("p=%v: FR write %v exceeds eq8 %v", p, est, eq8)
		}
	}
}

// TestFRNoStalenessDecay runs many write trials without any repair:
// unlike TRAP-ERC (whose conditional parity deltas strand stale
// nodes — the A4 decay), full replication self-heals because writes
// overwrite replicas outright. Success rates in the first and second
// halves of the run must be statistically indistinguishable.
func TestFRNoStalenessDecay(t *testing.T) {
	cfg := fig3Config(t)
	fe, err := NewFREstimator(context.Background(), cfg, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	const trials = 4000
	first, err := fe.EstimateWrite(context.Background(), 0.85, trials, 31)
	if err != nil {
		t.Fatal(err)
	}
	second, err := fe.EstimateWrite(context.Background(), 0.85, trials, 37)
	if err != nil {
		t.Fatal(err)
	}
	if diff := first.Estimate() - second.Estimate(); diff > 0.05 || diff < -0.05 {
		t.Fatalf("FR write availability drifted: %v then %v", first.Estimate(), second.Estimate())
	}
	// Both halves stay near eq8.
	eq8 := availability.Write(cfg, 0.85)
	if !second.WithinScore(eq8, 5) {
		t.Fatalf("late FR writes %v far from eq8 %v", second.Estimate(), eq8)
	}
}

func TestFREstimatorValidation(t *testing.T) {
	badCfg := trapezoid.Config{Shape: trapezoid.Shape{A: -1, B: 1, H: 0}, W: []int{1}}
	if _, err := NewFREstimator(context.Background(), badCfg, 64, 1); err == nil {
		t.Fatal("invalid trapezoid accepted")
	}
	fe, err := NewFREstimator(context.Background(), fig3Config(t), 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	if _, err := fe.EstimateRead(context.Background(), -1, 10, 1); err == nil {
		t.Fatal("p<0 accepted")
	}
	if _, err := fe.EstimateWrite(context.Background(), 1.5, 10, 1); err == nil {
		t.Fatal("p>1 accepted")
	}
}
