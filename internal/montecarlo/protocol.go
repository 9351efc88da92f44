package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"trapquorum/internal/core"
	"trapquorum/internal/erasure"
	"trapquorum/internal/sim"
	"trapquorum/internal/trapezoid"
)

// ProtocolEstimator measures availability end to end: it seeds a
// stripe on a live simulated cluster and, per trial, applies a random
// availability mask, attempts the operation through the real protocol
// and counts successes. Rollback keeps the stripe consistent across
// failed trials, so the trials are identically distributed.
type ProtocolEstimator struct {
	cluster *sim.Cluster
	sys     *core.System
	n, k    int
	size    int
	stripe  core.Stripe
	written uint64 // write counter for distinct payloads
}

// NewProtocolEstimator builds the harness for an (n,k) code and
// trapezoid configuration, seeding one stripe of blockSize-byte
// blocks. Close must be called when done.
func NewProtocolEstimator(ctx context.Context, n, k int, cfg trapezoid.Config, blockSize int, seed int64) (*ProtocolEstimator, error) {
	code, err := erasure.New(n, k)
	if err != nil {
		return nil, err
	}
	cluster, err := sim.NewCluster(n)
	if err != nil {
		return nil, err
	}
	nodes := make([]core.NodeClient, n)
	stripe := core.Stripe{ID: 1, Nodes: make([]int, n), BlockSize: blockSize}
	for j := 0; j < n; j++ {
		nodes[j] = cluster.Node(j)
		stripe.Nodes[j] = j
	}
	sys, err := core.NewSystem(code, cfg, nodes, core.Options{})
	if err != nil {
		cluster.Close()
		return nil, err
	}
	pe := &ProtocolEstimator{cluster: cluster, sys: sys, n: n, k: k, size: blockSize, stripe: stripe}
	r := rand.New(rand.NewSource(seed))
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, blockSize)
		r.Read(data[i])
	}
	if err := sys.SeedStripe(ctx, pe.stripe, data); err != nil {
		cluster.Close()
		return nil, err
	}
	return pe, nil
}

// Close releases the backing cluster.
func (pe *ProtocolEstimator) Close() { pe.cluster.Close() }

// System exposes the underlying protocol instance (for metrics).
func (pe *ProtocolEstimator) System() *core.System { return pe.sys }

// EstimateRead measures protocol-level read availability at node
// availability p.
func (pe *ProtocolEstimator) EstimateRead(ctx context.Context, p float64, trials int, seed int64) (Result, error) {
	ms, err := newMaskSampler(p, seed)
	if err != nil {
		return Result{}, err
	}
	blockPick := rand.New(rand.NewSource(seed + 1))
	var mask []bool
	res := Result{P: p, Seed: seed}
	for t := 0; t < trials; t++ {
		mask = ms.draw(pe.n, mask)
		if err := pe.cluster.ApplyMask(mask); err != nil {
			return Result{}, err
		}
		block := blockPick.Intn(pe.k)
		_, _, err := pe.sys.ReadBlock(ctx, pe.stripe, block)
		switch {
		case err == nil:
			res.Successes++
		case errors.Is(err, core.ErrNotReadable):
			// counted as failure
		default:
			return Result{}, fmt.Errorf("montecarlo: unexpected read error: %w", err)
		}
		res.Trials++
	}
	pe.cluster.RestartAll()
	return res, nil
}

// EstimateWrite measures protocol-level write availability at node
// availability p, repairing stale shards between trials so every trial
// starts from the fully consistent state the paper's iid model assumes
// (a node that misses a delta while down stays version-stale and
// rejects all later deltas until repaired). Its writes still pay
// Algorithm 1's initial read, which equation (8) does not model: the
// inter-trial repair, like a failed write, drops what the system's
// block cache held of the stripe, so a trial finds its block warm —
// and writes in one round — only after a successful write with every
// node up. `trapbench sim -p 0.5` prints the resulting gap next to
// eq. 8.
func (pe *ProtocolEstimator) EstimateWrite(ctx context.Context, p float64, trials int, seed int64) (Result, error) {
	return pe.estimateWrite(ctx, p, trials, seed, true)
}

// EstimateWriteSteadyState is the no-repair ablation: stale shards
// accumulate across trials exactly as they would in a deployment
// without a repair daemon, so measured availability decays below the
// closed form. The cluster is healed and repaired before returning.
func (pe *ProtocolEstimator) EstimateWriteSteadyState(ctx context.Context, p float64, trials int, seed int64) (Result, error) {
	return pe.estimateWrite(ctx, p, trials, seed, false)
}

func (pe *ProtocolEstimator) estimateWrite(ctx context.Context, p float64, trials int, seed int64, repairBetween bool) (Result, error) {
	ms, err := newMaskSampler(p, seed)
	if err != nil {
		return Result{}, err
	}
	blockPick := rand.New(rand.NewSource(seed + 1))
	payload := rand.New(rand.NewSource(seed + 2))
	buf := make([]byte, pe.size)
	var mask []bool
	res := Result{P: p, Seed: seed}
	for t := 0; t < trials; t++ {
		mask = ms.draw(pe.n, mask)
		if err := pe.cluster.ApplyMask(mask); err != nil {
			return Result{}, err
		}
		block := blockPick.Intn(pe.k)
		payload.Read(buf)
		err := pe.sys.WriteBlock(ctx, pe.stripe, block, buf)
		succeeded := false
		switch {
		case err == nil:
			res.Successes++
			succeeded = true
		case errors.Is(err, core.ErrWriteFailed):
			// counted as failure
		default:
			return Result{}, fmt.Errorf("montecarlo: unexpected write error: %w", err)
		}
		res.Trials++
		pe.written++
		if repairBetween && succeeded {
			// Only shards that were down during a *successful* write
			// went stale; failed writes rolled back cleanly.
			pe.cluster.RestartAll()
			for shard := 0; shard < pe.n; shard++ {
				if !mask[shard] {
					if err := pe.sys.RepairShard(ctx, pe.stripe, shard); err != nil {
						return Result{}, fmt.Errorf("montecarlo: inter-trial repair: %w", err)
					}
				}
			}
		}
	}
	// Heal the cluster and repair every shard so subsequent
	// estimations start from a consistent state.
	pe.cluster.RestartAll()
	for shard := 0; shard < pe.n; shard++ {
		_ = pe.sys.RepairShard(context.Background(), pe.stripe, shard)
	}
	return res, nil
}
