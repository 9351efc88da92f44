// Command trapbench is the paper-model tool. With no subcommand it
// regenerates the figures of the paper's evaluation section (Figures
// 2–5) plus this reproduction's validation and ablation studies,
// printing each as an aligned table and optionally writing CSV files
// for plotting. EXPERIMENTS.md records its output at seed 1.
//
// avail evaluates the closed-form availability and storage equations
// (7–15) for one configuration: write availability, read availability
// under full replication and erasure coding (both equation 13 and the
// exact protocol-structural value), and the storage used per block.
//
// sim runs Monte-Carlo availability estimation against the real
// protocol implementation on a simulated fail-stop cluster and prints
// the estimates next to the closed forms, including the operation mix
// the protocol served (direct vs decode reads — the empirical P1/P2
// split).
//
// Usage:
//
//	trapbench [-fig all|fig2|fig3|fig4|fig5|mcval|ablation-write|ablation-read|update-cost|endurance]
//	          [-trials N] [-seed S] [-csv DIR]
//	trapbench avail [-n 15 -k 8 -a 2 -b 3 -hh 1 -w 3 -p 0.9]
//	trapbench sim [-n 15 -k 8 -a 2 -b 3 -hh 1 -w 3 -p 0.9] [-trials 5000] [-blocksize 4096] [-seed 1] [-steady]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"trapquorum/internal/availability"
	"trapquorum/internal/figures"
	"trapquorum/internal/montecarlo"
	"trapquorum/internal/trapezoid"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trapbench:", err)
		os.Exit(1)
	}
}

// run executes one invocation: the avail or sim subcommand, or the
// figure tables when args name neither.
func run(w io.Writer, args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "avail":
			return runAvail(w, args[1:])
		case "sim":
			return runSim(w, args[1:])
		}
	}
	fs := flag.NewFlagSet("trapbench", flag.ExitOnError)
	figID := fs.String("fig", "all", "figure id to regenerate, or 'all'")
	trials := fs.Int("trials", 50000, "Monte-Carlo trials per grid point (mcval)")
	seed := fs.Int64("seed", 1, "Monte-Carlo seed")
	csvDir := fs.String("csv", "", "directory to write <fig>.csv files into (optional)")
	fs.Parse(args)
	if err := checkTrials(*trials); err != nil {
		return err
	}

	var figs []*figures.Figure
	if *figID == "all" {
		all, err := figures.All(*trials, *seed)
		if err != nil {
			return err
		}
		figs = all
	} else {
		fig, err := figures.Build(*figID, *trials, *seed)
		if err != nil {
			return err
		}
		figs = []*figures.Figure{fig}
	}
	for _, fig := range figs {
		fmt.Fprintln(w, fig.Table())
		if *csvDir != "" {
			path := filepath.Join(*csvDir, fig.ID+".csv")
			if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n\n", path)
		}
	}
	return nil
}

// geometry is the (n,k) code, trapezoid and node availability that
// avail and sim evaluate.
type geometry struct {
	n, k, a, b, h, w int
	p                float64
}

func geometryFlags(fs *flag.FlagSet) *geometry {
	g := new(geometry)
	fs.IntVar(&g.n, "n", 15, "MDS code length n")
	fs.IntVar(&g.k, "k", 8, "MDS code dimension k")
	fs.IntVar(&g.a, "a", 2, "trapezoid slope a")
	fs.IntVar(&g.b, "b", 3, "trapezoid base b (level-0 width)")
	fs.IntVar(&g.h, "hh", 1, "trapezoid top level h (h+1 levels)")
	fs.IntVar(&g.w, "w", 3, "write quorum size at levels 1..h")
	fs.Float64Var(&g.p, "p", 0.9, "node availability p")
	return g
}

// config checks the geometry and returns its trapezoid configuration,
// which must hold exactly the n-k+1 nodes of one block's stripe.
func (g *geometry) config() (trapezoid.Config, error) {
	if g.p < 0 || g.p > 1 {
		return trapezoid.Config{}, fmt.Errorf("p = %v outside [0,1]", g.p)
	}
	shape := trapezoid.Shape{A: g.a, B: g.b, H: g.h}
	cfg, err := trapezoid.NewConfig(shape, g.w)
	if err != nil {
		return trapezoid.Config{}, err
	}
	if got, want := shape.NbNodes(), g.n-g.k+1; got != want {
		return trapezoid.Config{}, fmt.Errorf("trapezoid holds %d nodes, need n-k+1 = %d", got, want)
	}
	return cfg, nil
}

func checkTrials(trials int) error {
	if trials < 1 {
		return fmt.Errorf("trials = %d, need at least 1", trials)
	}
	return nil
}

func runAvail(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("trapbench avail", flag.ExitOnError)
	g := geometryFlags(fs)
	fs.Parse(args)
	cfg, err := g.config()
	if err != nil {
		return err
	}
	n, k, p, shape := g.n, g.k, g.p, cfg.Shape
	e := availability.ERCParams{Config: cfg, N: n, K: k}
	fmt.Fprintf(w, "configuration: (n=%d, k=%d) MDS, trapezoid %s, w=%d, p=%g\n", n, k, shape, g.w, p)
	fmt.Fprintf(w, "  levels:")
	for l := 0; l <= shape.H; l++ {
		fmt.Fprintf(w, " s_%d=%d (w=%d, r=%d)", l, shape.LevelSize(l), cfg.W[l], cfg.ReadThreshold(l))
	}
	fmt.Fprintln(w)

	fmt.Fprintf(w, "write availability  (eq 8/9): %.6f\n", availability.Write(cfg, p))
	fmt.Fprintf(w, "read  availability   TRAP-FR (eq 10): %.6f\n", availability.ReadFR(cfg, p))
	erc, err := availability.ReadERC(e, p)
	if err != nil {
		return err
	}
	p1, p2, err := availability.ReadERCParts(e, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "read  availability  TRAP-ERC (eq 13): %.6f  (P1=%.6f direct, P2=%.6f decode)\n", erc, p1, p2)
	exact, err := availability.ReadERCExact(e, p)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "read  availability  TRAP-ERC (exact protocol): %.6f  (eq13 optimism: %+.6f)\n", exact, erc-exact)
	fmt.Fprintf(w, "storage per block: TRAP-FR %.3f x blocksize (eq 14), TRAP-ERC %.3f x blocksize (eq 15)\n",
		availability.StorageFR(n, k), availability.StorageERC(n, k))
	fmt.Fprintf(w, "storage saving: %.1f%%\n", 100*(1-availability.StorageERC(n, k)/availability.StorageFR(n, k)))
	return nil
}

func runSim(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("trapbench sim", flag.ExitOnError)
	g := geometryFlags(fs)
	trials := fs.Int("trials", 5000, "trials per estimate")
	blockSize := fs.Int("blocksize", 4096, "block size in bytes")
	seed := fs.Int64("seed", 1, "random seed")
	steady := fs.Bool("steady", false, "steady-state write estimation (no inter-trial repair)")
	fs.Parse(args)
	cfg, err := g.config()
	if err != nil {
		return err
	}
	if err := checkTrials(*trials); err != nil {
		return err
	}
	n, k, p := g.n, g.k, g.p
	ctx := context.Background()
	pe, err := montecarlo.NewProtocolEstimator(ctx, n, k, cfg, *blockSize, *seed)
	if err != nil {
		return err
	}
	defer pe.Close()

	fmt.Fprintf(w, "protocol Monte-Carlo: (n=%d,k=%d) trapezoid %s w=%d, p=%g, %d trials, %dB blocks\n",
		n, k, cfg.Shape, g.w, p, *trials, *blockSize)

	read, err := pe.EstimateRead(ctx, p, *trials, *seed+10)
	if err != nil {
		return err
	}
	e := availability.ERCParams{Config: cfg, N: n, K: k}
	eq13, err := availability.ReadERC(e, p)
	if err != nil {
		return err
	}
	exact, err := availability.ReadERCExact(e, p)
	if err != nil {
		return err
	}
	lo, hi := read.ConfidenceInterval(1.96)
	fmt.Fprintf(w, "read : measured %.4f  [%.4f, %.4f]95%%   eq13 %.4f   exact %.4f\n",
		read.Estimate(), lo, hi, eq13, exact)

	var write montecarlo.Result
	mode := "repaired"
	if *steady {
		write, err = pe.EstimateWriteSteadyState(ctx, p, *trials, *seed+20)
		mode = "steady-state (no repair)"
	} else {
		write, err = pe.EstimateWrite(ctx, p, *trials, *seed+20)
	}
	if err != nil {
		return err
	}
	lo, hi = write.ConfidenceInterval(1.96)
	fmt.Fprintf(w, "write: measured %.4f  [%.4f, %.4f]95%%   eq8  %.4f   (%s)\n",
		write.Estimate(), lo, hi, availability.Write(cfg, p), mode)

	m := pe.System().Metrics()
	if totalReads := m.DirectReads + m.DecodeReads; totalReads > 0 {
		fmt.Fprintf(w, "read mix: %d direct (%.1f%%), %d decode (%.1f%%) — empirical P1/P2 split\n",
			m.DirectReads, 100*float64(m.DirectReads)/float64(totalReads),
			m.DecodeReads, 100*float64(m.DecodeReads)/float64(totalReads))
	}
	fmt.Fprintf(w, "ops: %d writes ok, %d failed, %d rollbacks, %d repairs\n",
		m.Writes, m.FailedWrites, m.Rollbacks, m.Repairs)
	return nil
}
