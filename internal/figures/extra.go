package figures

import (
	"fmt"

	"trapquorum/internal/availability"
	"trapquorum/internal/montecarlo"
	"trapquorum/internal/quorum"
	"trapquorum/internal/trapezoid"
)

// MonteCarloValidation builds the V1 experiment: Monte-Carlo estimates
// of write, FR-read and ERC-read availability on the Figure-3
// configuration, side by side with the closed forms, at the given
// trial count. Columns come in (formula, estimate) pairs.
func MonteCarloValidation(trials int, seed int64) (*Figure, error) {
	cfg, err := trapezoid.NewConfig(Fig3Shape, Fig3W)
	if err != nil {
		return nil, err
	}
	e := availability.ERCParams{Config: cfg, N: Fig3N, K: Fig3K}
	x := PGrid(0.1, 1, 0.1)
	series := []Series{
		{Name: "write(eq8)"}, {Name: "write(mc)"},
		{Name: "readFR(eq10)"}, {Name: "readFR(mc)"},
		{Name: "readERC(eq13)"}, {Name: "readERC(mc)"},
		{Name: "readERC(exact)"}, {Name: "readERC(mc-proto)"},
	}
	for _, p := range x {
		series[0].Y = append(series[0].Y, availability.Write(cfg, p))
		mw, err := montecarlo.EstimateWrite(cfg, p, trials, seed)
		if err != nil {
			return nil, err
		}
		series[1].Y = append(series[1].Y, mw.Estimate())

		series[2].Y = append(series[2].Y, availability.ReadFR(cfg, p))
		mfr, err := montecarlo.EstimateReadFR(cfg, p, trials, seed+1)
		if err != nil {
			return nil, err
		}
		series[3].Y = append(series[3].Y, mfr.Estimate())

		v13, err := availability.ReadERC(e, p)
		if err != nil {
			return nil, err
		}
		series[4].Y = append(series[4].Y, v13)
		m13, err := montecarlo.EstimateReadERC(e, montecarlo.ModelEq13, p, trials, seed+2)
		if err != nil {
			return nil, err
		}
		series[5].Y = append(series[5].Y, m13.Estimate())

		vex, err := availability.ReadERCExact(e, p)
		if err != nil {
			return nil, err
		}
		series[6].Y = append(series[6].Y, vex)
		mex, err := montecarlo.EstimateReadERC(e, montecarlo.ModelProtocol, p, trials, seed+3)
		if err != nil {
			return nil, err
		}
		series[7].Y = append(series[7].Y, mex.Estimate())
	}
	return &Figure{
		ID:     "mcval",
		Title:  fmt.Sprintf("Monte-Carlo validation of the closed forms (%d trials/point)", trials),
		XLabel: "p",
		YLabel: "availability",
		X:      x,
		Series: series,
	}, nil
}

// ablationSystems builds the baseline systems on node counts close to
// the trapezoid's 8 so the geometry, not the node count, drives the
// comparison.
func ablationSystems() ([]quorum.System, error) {
	cfg, err := trapezoid.NewConfig(Fig3Shape, Fig3W)
	if err != nil {
		return nil, err
	}
	trap, err := quorum.NewTrapezoidFR(cfg)
	if err != nil {
		return nil, err
	}
	rowa, err := quorum.NewROWA(8)
	if err != nil {
		return nil, err
	}
	maj, err := quorum.NewMajority(8)
	if err != nil {
		return nil, err
	}
	grid, err := quorum.NewGrid(2, 4)
	if err != nil {
		return nil, err
	}
	tree, err := quorum.NewTree(2, 2) // 7 nodes: closest complete tree
	if err != nil {
		return nil, err
	}
	return []quorum.System{trap, rowa, maj, grid, tree}, nil
}

// AblationWrite compares write availability of the trapezoid protocol
// against the classical quorum systems of the related-work section on
// matched node counts (A1 experiment).
func AblationWrite() (*Figure, error) {
	systems, err := ablationSystems()
	if err != nil {
		return nil, err
	}
	x := PGrid(0, 1, 0.05)
	fig := &Figure{
		ID:     "ablation-write",
		Title:  "Write availability: trapezoid vs classical quorum systems (~8 nodes)",
		XLabel: "p",
		YLabel: "P_write",
		X:      x,
	}
	for _, sys := range systems {
		s := Series{Name: sys.Name()}
		for _, p := range x {
			s.Y = append(s.Y, sys.WriteAvailability(p))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// AblationRead is the read-side companion of AblationWrite.
func AblationRead() (*Figure, error) {
	systems, err := ablationSystems()
	if err != nil {
		return nil, err
	}
	x := PGrid(0, 1, 0.05)
	fig := &Figure{
		ID:     "ablation-read",
		Title:  "Read availability: trapezoid vs classical quorum systems (~8 nodes)",
		XLabel: "p",
		YLabel: "P_read",
		X:      x,
	}
	for _, sys := range systems {
		s := Series{Name: sys.Name()}
		for _, p := range x {
			s.Y = append(s.Y, sys.ReadAvailability(p))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// UpdateCost builds the A2 experiment: the number of node operations a
// single-block update needs under the basic ERC update scheme the
// paper's introduction describes (read+write on n−k+1 blocks ⇒
// 2(n−k+1) ops) versus the trapezoid write quorum |WQ| = Σ w_l, as k
// varies with n = 15. The crossing illustrates when the quorum
// protocol's geometry is cheaper than touching every redundant block.
func UpdateCost() (*Figure, error) {
	const n = 15
	var x []float64
	basic := Series{Name: "basic in-place (2(n-k+1))"}
	quorumOps := Series{Name: "trapezoid |WQ| (best shape)"}
	for k := 1; k < n; k++ {
		nb := n - k + 1
		shapes := trapezoid.EnumerateShapes(nb, 4)
		bestWQ := -1
		for _, shape := range shapes {
			cfg, err := trapezoid.NewConfig(shape, 1)
			if err != nil {
				continue
			}
			if wq := cfg.WriteQuorumSize(); bestWQ == -1 || wq < bestWQ {
				bestWQ = wq
			}
		}
		if bestWQ == -1 {
			continue
		}
		x = append(x, float64(k))
		basic.Y = append(basic.Y, float64(2*nb))
		quorumOps.Y = append(quorumOps.Y, float64(bestWQ))
	}
	return &Figure{
		ID:     "update-cost",
		Title:  "Single-block update cost in node operations (n=15)",
		XLabel: "k",
		YLabel: "node ops",
		X:      x,
		Series: []Series{basic, quorumOps},
	}, nil
}

// builders maps every figure id to its generator at default settings,
// in presentation order. Only mcval reads the trial count; mcval and
// endurance read the seed.
var builders = []struct {
	id    string
	build func(mcTrials int, seed int64) (*Figure, error)
}{
	{"fig2", func(int, int64) (*Figure, error) { return Fig2() }},
	{"fig3", func(int, int64) (*Figure, error) { return Fig3() }},
	{"fig4", func(int, int64) (*Figure, error) { return Fig4() }},
	{"fig5", func(int, int64) (*Figure, error) { return Fig5() }},
	{"mcval", MonteCarloValidation},
	{"ablation-write", func(int, int64) (*Figure, error) { return AblationWrite() }},
	{"ablation-read", func(int, int64) (*Figure, error) { return AblationRead() }},
	{"update-cost", func(int, int64) (*Figure, error) { return UpdateCost() }},
	{"endurance", func(_ int, seed int64) (*Figure, error) { return Endurance(3000, 15, seed) }},
}

// Build returns the one figure with the given id at default settings,
// running only its generator.
func Build(id string, mcTrials int, seed int64) (*Figure, error) {
	for _, b := range builders {
		if b.id == id {
			return b.build(mcTrials, seed)
		}
	}
	return nil, fmt.Errorf("unknown figure %q", id)
}

// All returns every figure at default settings, in presentation order.
func All(mcTrials int, seed int64) ([]*Figure, error) {
	var out []*Figure
	for _, b := range builders {
		fig, err := b.build(mcTrials, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, fig)
	}
	return out, nil
}
