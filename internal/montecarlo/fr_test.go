package montecarlo

import (
	"context"
	"testing"

	"trapquorum/internal/availability"
	"trapquorum/internal/trapezoid"
)

// TRAP-FR is TRAP-ERC at k = 1: the live full-replication protocol is
// the (8,1) ProtocolEstimator on the Figure-3 trapezoid.

// newFREstimator seeds the (8,1) protocol on the Figure-3 trapezoid.
func newFREstimator(t *testing.T, seed int64) *ProtocolEstimator {
	t.Helper()
	fe, err := NewProtocolEstimator(context.Background(), 8, 1, fig3Config(t), 64, seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fe.Close)
	return fe
}

// TestFREstimatorMatchesEq10 validates the live full-replication
// protocol against equation (10) for reads and against equation (8)
// as an upper bound for writes.
func TestFREstimatorMatchesEq10(t *testing.T) {
	cfg := fig3Config(t)
	fe := newFREstimator(t, 3)
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

// TestFRNoStalenessDecay runs two long write series back to back:
// with stale replicas repaired between trials, success rates in the
// two halves must be statistically indistinguishable and near eq. 8.
// Without the repair the k = 1 system decays like any TRAP-ERC stripe
// (a replica that missed a write rejects every later delta until
// repaired), where a blind full-block overwrite would have healed it:
// the steady-state series pins that difference.
func TestFRNoStalenessDecay(t *testing.T) {
	cfg := fig3Config(t)
	fe := newFREstimator(t, 5)
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
	steady, err := fe.EstimateWriteSteadyState(context.Background(), 0.85, trials, 31)
	if err != nil {
		t.Fatal(err)
	}
	if steady.Estimate() > second.Estimate()-0.2 {
		t.Fatalf("unrepaired FR writes %v did not decay below repaired %v", steady.Estimate(), second.Estimate())
	}
}

func TestFREstimatorValidation(t *testing.T) {
	badCfg := trapezoid.Config{Shape: trapezoid.Shape{A: -1, B: 1, H: 0}, W: []int{1}}
	if _, err := NewProtocolEstimator(context.Background(), 8, 1, badCfg, 64, 1); err == nil {
		t.Fatal("invalid trapezoid accepted")
	}
	if _, err := NewProtocolEstimator(context.Background(), 7, 1, fig3Config(t), 64, 1); err == nil {
		t.Fatal("8-position trapezoid accepted over 7 replicas")
	}
	fe := newFREstimator(t, 1)
	if _, err := fe.EstimateRead(context.Background(), -1, 10, 1); err == nil {
		t.Fatal("p<0 accepted")
	}
	if _, err := fe.EstimateWrite(context.Background(), 1.5, 10, 1); err == nil {
		t.Fatal("p>1 accepted")
	}
}
