package montecarlo

import (
	"context"
	"math"
	"testing"

	"trapquorum/internal/failsched"
)

// OverallWriteRate aggregates all windows.
func (r *EnduranceReport) OverallWriteRate() float64 {
	ok, n := 0, 0
	for _, w := range r.Windows {
		ok += w.WriteOK
		n += w.WriteN
	}
	if n == 0 {
		return 0
	}
	return float64(ok) / float64(n)
}

// OverallReadRate aggregates all windows.
func (r *EnduranceReport) OverallReadRate() float64 {
	ok, n := 0, 0
	for _, w := range r.Windows {
		ok += w.ReadOK
		n += w.ReadN
	}
	if n == 0 {
		return 0
	}
	return float64(ok) / float64(n)
}

func enduranceBase(t testing.TB) EnduranceConfig {
	t.Helper()
	return EnduranceConfig{
		N: 15, K: 8,
		Trapezoid: fig3Config(t.(*testing.T)),
		BlockSize: 64,
		Model:     failsched.Model{MTBF: 85, MTTR: 15}, // p = 0.85
		Horizon:   2000,
		Windows:   10,
		Seed:      5,
	}
}

func TestEnduranceValidation(t *testing.T) {
	cfg := enduranceBase(t)
	cfg.Windows = 0
	if _, err := RunEndurance(context.Background(), cfg); err == nil {
		t.Error("windows=0 accepted")
	}
	cfg = enduranceBase(t)
	cfg.Horizon = 0
	if _, err := RunEndurance(context.Background(), cfg); err == nil {
		t.Error("horizon=0 accepted")
	}
	cfg = enduranceBase(t)
	cfg.Model = failsched.Model{}
	if _, err := RunEndurance(context.Background(), cfg); err == nil {
		t.Error("invalid model accepted")
	}
	cfg = enduranceBase(t)
	cfg.K = 16
	if _, err := RunEndurance(context.Background(), cfg); err == nil {
		t.Error("invalid code accepted")
	}
}

// TestEnduranceDecayWithoutRepair reproduces the A4 finding end to
// end: without a repair daemon the *whole system* decays, not just
// writes. A node that misses one delta while down stays version-stale
// forever: stale parities reject future deltas (write decay), stale
// data nodes force decode reads, and per-node staleness patterns
// diverge until no k shards agree on a version vector (read decay).
func TestEnduranceDecayWithoutRepair(t *testing.T) {
	cfg := enduranceBase(t)
	cfg.RepairEvery = 0
	rep, err := RunEndurance(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MeanNodeAvailability-0.85) > 0.06 {
		t.Fatalf("schedule availability %v far from model 0.85", rep.MeanNodeAvailability)
	}
	earlyW := rep.Windows[0].WriteRate()
	lateW := rep.Windows[len(rep.Windows)-1].WriteRate()
	if lateW >= earlyW-0.1 {
		t.Fatalf("no write decay: early %v late %v", earlyW, lateW)
	}
	earlyR := rep.Windows[0].ReadRate()
	lateR := rep.Windows[len(rep.Windows)-1].ReadRate()
	if lateR >= earlyR-0.1 {
		t.Fatalf("no read decay: early %v late %v", earlyR, lateR)
	}
	// Reads remain easier than writes throughout.
	if rep.OverallReadRate() < rep.OverallWriteRate() {
		t.Fatalf("reads (%v) below writes (%v)", rep.OverallReadRate(), rep.OverallWriteRate())
	}
}

// TestEnduranceRepairHoldsAvailability shows the repair daemon keeps
// write availability near the closed form throughout the run.
func TestEnduranceRepairHoldsAvailability(t *testing.T) {
	cfg := enduranceBase(t)
	cfg.RepairEvery = 5
	rep, err := RunEndurance(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// eq8 at p=0.85 is 0.914; allow schedule/burst noise.
	if rate := rep.OverallWriteRate(); rate < 0.8 {
		t.Fatalf("write rate with repair daemon = %v, expected near eq8", rate)
	}
	late := rep.Windows[len(rep.Windows)-1].WriteRate()
	if late < 0.75 {
		t.Fatalf("late-window write rate decayed to %v despite repair", late)
	}
	repairs := 0
	for _, w := range rep.Windows {
		repairs += w.RepairsPerformed
	}
	if repairs == 0 {
		t.Fatal("repair daemon never ran")
	}
}

func TestEnduranceWindowBookkeeping(t *testing.T) {
	cfg := enduranceBase(t)
	cfg.Horizon = 100
	cfg.Windows = 4
	rep, err := RunEndurance(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Windows) != 4 {
		t.Fatalf("windows = %d", len(rep.Windows))
	}
	totalOps := 0
	for i, w := range rep.Windows {
		if w.End <= w.Start {
			t.Fatalf("window %d degenerate", i)
		}
		if w.WriteN != w.ReadN {
			t.Fatalf("window %d unbalanced ops", i)
		}
		totalOps += w.WriteN
	}
	if totalOps != 100 {
		t.Fatalf("total write attempts %d, want 100", totalOps)
	}
	if (EnduranceWindow{}).WriteRate() != 0 || (EnduranceWindow{}).ReadRate() != 0 {
		t.Fatal("empty window rates should be 0")
	}
}
