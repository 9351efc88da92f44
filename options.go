package trapquorum

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"trapquorum/internal/core"
	"trapquorum/internal/trapezoid"
	"trapquorum/placement"
)

// Option configures Open and OpenStore. Options validate eagerly
// where they can; all collected problems are reported together by the
// constructor.
type Option func(*config)

// config is the resolved option set. The zero values of unset fields
// are filled by defaults() before validation.
type config struct {
	n, k           int
	shape          trapezoid.Shape
	w              int
	blockSize      int
	place          placement.Strategy
	backend        Backend
	concurrency    int
	codingParallel int
	hedge          core.HedgeConfig
	selfHeal       *SelfHeal
	errs           []error
}

// newConfig applies the options over the paper's Figure-3 defaults:
// a (15,8) MDS code under an a=2 b=3 h=1 trapezoid with w=3, 4 KiB
// blocks, round-robin placement over exactly n nodes, and the
// in-process simulated cluster as backend.
func newConfig(opts []Option) (*config, error) {
	cfg := &config{
		n: 15, k: 8,
		shape:          trapezoid.Shape{A: 2, B: 3, H: 1},
		w:              3,
		blockSize:      4096,
		codingParallel: 1,
	}
	for _, opt := range opts {
		if opt == nil {
			cfg.errs = append(cfg.errs, errors.New("trapquorum: nil Option"))
			continue
		}
		opt(cfg)
	}
	if cfg.k < 1 || cfg.n < cfg.k {
		cfg.errs = append(cfg.errs, fmt.Errorf("trapquorum: need 1 <= k <= n, got (n=%d, k=%d)", cfg.n, cfg.k))
	}
	if cfg.blockSize < 1 {
		cfg.errs = append(cfg.errs, fmt.Errorf("trapquorum: block size %d invalid", cfg.blockSize))
	}
	if got, want := cfg.shape.NbNodes(), cfg.n-cfg.k+1; len(cfg.errs) == 0 && got != want {
		cfg.errs = append(cfg.errs, fmt.Errorf(
			"trapquorum: trapezoid (a=%d b=%d h=%d) holds %d nodes; need n-k+1 = %d",
			cfg.shape.A, cfg.shape.B, cfg.shape.H, got, want))
	}
	if cfg.place == nil {
		rr, err := placement.NewRoundRobin(max(cfg.n, 1))
		if err != nil {
			cfg.errs = append(cfg.errs, err)
		} else {
			cfg.place = rr
		}
	}
	if cfg.backend == nil {
		cfg.backend = NewSimBackend()
	}
	if len(cfg.errs) > 0 {
		return nil, errors.Join(cfg.errs...)
	}
	return cfg, nil
}

// trapezoidConfig validates and builds the quorum thresholds.
func (c *config) trapezoidConfig() (trapezoid.Config, error) {
	return trapezoid.NewConfig(c.shape, c.w)
}

// WithCode selects the (n,k) MDS erasure code: k data blocks and n−k
// parity blocks per stripe (1 ≤ k ≤ n ≤ 256).
func WithCode(n, k int) Option {
	return func(c *config) { c.n, c.k = n, k }
}

// WithTrapezoid selects the trapezoid quorum geometry: level l of
// levels 0..h holds a·l+b nodes, and Σ(a·l+b) must equal n−k+1; w is
// the write-quorum size at levels 1..h (ignored when h = 0).
func WithTrapezoid(a, b, h, w int) Option {
	return func(c *config) {
		c.shape = trapezoid.Shape{A: a, B: b, H: h}
		c.w = w
	}
}

// WithPlacement selects the strategy mapping stripes to cluster
// nodes; the strategy's node count defines the cluster size the
// backend is asked to provision. Only meaningful for Open (the
// object store); OpenStore always uses exactly n nodes.
func WithPlacement(p placement.Strategy) Option {
	return func(c *config) {
		if p == nil {
			c.errs = append(c.errs, errors.New("trapquorum: WithPlacement(nil)"))
			return
		}
		c.place = p
	}
}

// WithBlockSize sets the fixed data-block size in bytes for the
// object store's stripes (default 4096). Only meaningful for Open;
// OpenStore derives block sizes from the payloads it is given.
func WithBlockSize(bytes int) Option {
	return func(c *config) { c.blockSize = bytes }
}

// WithBackend selects the transport backend providing the cluster's
// node clients. The default is NewSimBackend(), the in-process
// simulated fail-stop cluster.
func WithBackend(b Backend) Option {
	return func(c *config) {
		if b == nil {
			c.errs = append(c.errs, errors.New("trapquorum: WithBackend(nil)"))
			return
		}
		c.backend = b
	}
}

// WithConcurrency bounds the number of in-flight per-node RPCs a
// single quorum operation issues. The default (0) contacts every node
// of the operation at once, so operation latency tracks the slowest
// individual RPC instead of the sum over the quorum.
// WithConcurrency(1) serialises the RPCs, reproducing the sequential
// engine for comparison benchmarks. The same limit also caps how many
// per-stripe repairs a node-wide repair sweep keeps in flight.
func WithConcurrency(limit int) Option {
	return func(c *config) {
		if limit < 0 {
			c.errs = append(c.errs, fmt.Errorf("trapquorum: WithConcurrency(%d): need >= 0", limit))
			return
		}
		c.concurrency = limit
	}
}

// WithCodingParallelism bounds the worker set the erasure data plane
// fans block segments across: large blocks are split into cache-sized
// segments and encoded/rebuilt by up to `workers` goroutines, the
// stripe-parallel sibling of the quorum engine's WithConcurrency knob.
// The default (1) keeps all coding on the calling goroutine, which is
// right for small blocks and for servers running many operations
// concurrently; use >1 (or 0 for GOMAXPROCS) to accelerate individual
// large-block operations — a virtual-disk or large-object workload —
// on multi-core hardware.
func WithCodingParallelism(workers int) Option {
	return func(c *config) {
		if workers < 0 {
			c.errs = append(c.errs, fmt.Errorf("trapquorum: WithCodingParallelism(%d): need >= 0", workers))
			return
		}
		if workers == 0 {
			// Resolve the auto value here so every layer below sees an
			// explicit worker count (the zero value stays "serial" for
			// raw internal configs).
			workers = runtime.GOMAXPROCS(0)
		}
		c.codingParallel = workers
	}
}

// WithHedging enables tail-latency hedging of read-path RPCs (version
// probes and chunk reads): an RPC that has not settled after the hedge
// delay is re-issued once and the first result wins, so one slow node
// does not drag a read to its tail latency. Hedging costs duplicate
// RPCs on the hedged fraction of requests and never touches mutating
// RPCs, so it is safe with any backend honouring the client contract.
//
// delay is the fixed hedge delay (and the floor under the adaptive
// delay). quantile, when in (0, 1), adapts the delay to that quantile
// of recently observed read-RPC latencies — e.g. 0.95 hedges only the
// slowest ~5% of RPCs once enough samples exist. Set quantile to 0
// for a purely fixed delay.
func WithHedging(delay time.Duration, quantile float64) Option {
	return func(c *config) {
		if delay < 0 || quantile < 0 || quantile >= 1 {
			c.errs = append(c.errs, fmt.Errorf(
				"trapquorum: WithHedging(%v, %v): need delay >= 0 and 0 <= quantile < 1", delay, quantile))
			return
		}
		if delay == 0 && quantile == 0 {
			c.errs = append(c.errs, errors.New("trapquorum: WithHedging(0, 0) enables nothing; omit the option instead"))
			return
		}
		c.hedge = core.HedgeConfig{Delay: delay, Quantile: quantile}
	}
}
