package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"trapquorum/internal/core"
	"trapquorum/internal/failsched"
	"trapquorum/internal/trapezoid"
)

// EnduranceConfig parameterises a long-horizon run where nodes follow
// an MTBF/MTTR alternating renewal process instead of the paper's
// instantaneous iid model, and a repair daemon (optionally) brings
// stale shards back after each outage.
type EnduranceConfig struct {
	N, K      int
	Trapezoid trapezoid.Config
	BlockSize int
	// Model gives each node exp(MTBF) up and exp(MTTR) down periods;
	// steady-state availability is MTBF/(MTBF+MTTR).
	Model failsched.Model
	// Horizon is the virtual duration of the run; one write and one
	// read are attempted at every unit step.
	Horizon float64
	// RepairEvery is the repair daemon's period in virtual time;
	// 0 disables repair (the decay ablation).
	RepairEvery float64
	// Windows is how many equal time windows the rates are reported
	// over (≥ 1).
	Windows int
	Seed    int64
}

// EnduranceWindow is the success rates measured in one time window.
type EnduranceWindow struct {
	Start, End       float64
	WriteOK, WriteN  int
	ReadOK, ReadN    int
	RepairsPerformed int
}

// WriteRate returns the window's write success fraction.
func (w EnduranceWindow) WriteRate() float64 {
	if w.WriteN == 0 {
		return 0
	}
	return float64(w.WriteOK) / float64(w.WriteN)
}

// ReadRate returns the window's read success fraction.
func (w EnduranceWindow) ReadRate() float64 {
	if w.ReadN == 0 {
		return 0
	}
	return float64(w.ReadOK) / float64(w.ReadN)
}

// EnduranceReport is the outcome of one endurance run.
type EnduranceReport struct {
	Config  EnduranceConfig
	Windows []EnduranceWindow
	// MeanNodeAvailability is the schedule's empirical up fraction,
	// for comparison with Model.Availability().
	MeanNodeAvailability float64
}

// RunEndurance executes the run: a live protocol instance under a
// generated failure schedule, one write and one read attempt per unit
// of virtual time, with the repair daemon running at its period.
func RunEndurance(ctx context.Context, cfg EnduranceConfig) (*EnduranceReport, error) {
	if cfg.Windows < 1 {
		return nil, fmt.Errorf("montecarlo: need at least one window, got %d", cfg.Windows)
	}
	if !(cfg.Horizon > 0) {
		return nil, fmt.Errorf("montecarlo: horizon must be positive, got %v", cfg.Horizon)
	}
	sched, err := failsched.Generate(cfg.N, cfg.Horizon, cfg.Model, cfg.Seed)
	if err != nil {
		return nil, err
	}
	pe, err := NewProtocolEstimator(ctx, cfg.N, cfg.K, cfg.Trapezoid, cfg.BlockSize, cfg.Seed+1)
	if err != nil {
		return nil, err
	}
	defer pe.Close()

	cur := failsched.NewCursor(sched)
	blockPick := rand.New(rand.NewSource(cfg.Seed + 2))
	payload := rand.New(rand.NewSource(cfg.Seed + 3))
	buf := make([]byte, cfg.BlockSize)

	report := &EnduranceReport{Config: cfg, Windows: make([]EnduranceWindow, cfg.Windows)}
	winLen := cfg.Horizon / float64(cfg.Windows)
	for i := range report.Windows {
		report.Windows[i].Start = float64(i) * winLen
		report.Windows[i].End = float64(i+1) * winLen
	}
	nextRepair := cfg.RepairEvery
	upIntegral := 0.0
	steps := 0
	for t := 0.0; t < cfg.Horizon; t++ {
		up, err := cur.AdvanceTo(t)
		if err != nil {
			return nil, err
		}
		mask := append([]bool(nil), up...)
		if err := pe.cluster.ApplyMask(mask); err != nil {
			return nil, err
		}
		upIntegral += float64(cur.UpCount()) / float64(cfg.N)
		steps++
		win := int(t / winLen)
		if win >= cfg.Windows {
			win = cfg.Windows - 1
		}
		w := &report.Windows[win]

		// One read attempt.
		block := blockPick.Intn(cfg.K)
		_, _, rerr := pe.sys.ReadBlock(ctx, pe.stripe, block)
		w.ReadN++
		switch {
		case rerr == nil:
			w.ReadOK++
		case errors.Is(rerr, core.ErrNotReadable):
		default:
			return nil, fmt.Errorf("montecarlo: endurance read: %w", rerr)
		}
		// One write attempt.
		block = blockPick.Intn(cfg.K)
		payload.Read(buf)
		werr := pe.sys.WriteBlock(ctx, pe.stripe, block, buf)
		w.WriteN++
		switch {
		case werr == nil:
			w.WriteOK++
		case errors.Is(werr, core.ErrWriteFailed):
		default:
			return nil, fmt.Errorf("montecarlo: endurance write: %w", werr)
		}
		// Repair daemon: rebuild stale shards on currently-up nodes.
		if cfg.RepairEvery > 0 && t >= nextRepair {
			for shard := 0; shard < cfg.N; shard++ {
				if mask[shard] {
					if err := pe.sys.RepairShard(ctx, pe.stripe, shard); err == nil {
						w.RepairsPerformed++
					}
				}
			}
			nextRepair += cfg.RepairEvery
		}
	}
	if steps > 0 {
		report.MeanNodeAvailability = upIntegral / float64(steps)
	}
	return report, nil
}
