// Package montecarlo estimates read/write availability empirically,
// cross-validating the paper's closed forms (equations 8–13).
//
// Two estimators are provided. The structural estimator samples
// up/down masks under the §IV model (iid node availability p) and
// evaluates the protocol's quorum and decode conditions directly — it
// is what the closed forms describe. The protocol estimator drives the
// real core.System on a simulated cluster, measuring what the
// implementation actually achieves, including effects the formulas
// idealise away (the initial read inside Algorithm 1 on a cold block,
// the version check before decoding).
package montecarlo

import (
	"fmt"
	"math"
	"math/rand"

	"trapquorum/internal/availability"
	"trapquorum/internal/trapezoid"
)

// Result is a Bernoulli success count plus the sampling parameters.
type Result struct {
	Successes, Trials int
	P                 float64 // node availability the masks were drawn with
	Seed              int64
}

// Estimate returns the sample proportion, or 0 for an empty sample.
func (r Result) Estimate() float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Successes) / float64(r.Trials)
}

// ConfidenceInterval returns the normal-approximation interval
// estimate ± z·stderr, clamped to [0,1]. z = 1.96 gives ~95%,
// z = 3 gives ~99.7%.
func (r Result) ConfidenceInterval(z float64) (lo, hi float64) {
	est := r.Estimate()
	half := z * r.stdErr()
	return math.Max(est-half, 0), math.Min(est+half, 1)
}

// stdErr returns the standard error of the proportion estimate.
func (r Result) stdErr() float64 {
	if r.Trials == 0 {
		return 0
	}
	est := r.Estimate()
	return math.Sqrt(est * (1 - est) / float64(r.Trials))
}

// maskSampler draws iid availability masks.
type maskSampler struct {
	r *rand.Rand
	p float64
}

func newMaskSampler(p float64, seed int64) (*maskSampler, error) {
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("montecarlo: availability %v outside [0,1]", p)
	}
	return &maskSampler{r: rand.New(rand.NewSource(seed)), p: p}, nil
}

func (m *maskSampler) draw(n int, mask []bool) []bool {
	if cap(mask) < n {
		mask = make([]bool, n)
	}
	mask = mask[:n]
	for i := range mask {
		mask[i] = m.r.Float64() < m.p
	}
	return mask
}

// EstimateWrite estimates the trapezoid write availability (either
// variant — equations 8 and 9 coincide) by sampling masks over the
// trapezoid's nodes and checking that every level reaches w_l.
func EstimateWrite(cfg trapezoid.Config, p float64, trials int, seed int64) (Result, error) {
	lay, err := trapezoid.NewLayout(cfg)
	if err != nil {
		return Result{}, err
	}
	ms, err := newMaskSampler(p, seed)
	if err != nil {
		return Result{}, err
	}
	var mask []bool
	res := Result{P: p, Seed: seed}
	for t := 0; t < trials; t++ {
		mask = ms.draw(lay.NbNodes(), mask)
		if _, ok := lay.WriteQuorum(func(pos int) bool { return mask[pos] }); ok {
			res.Successes++
		}
		res.Trials++
	}
	return res, nil
}

// EstimateReadFR estimates full-replication read availability
// (equation 10): some level reaches its version-check threshold.
func EstimateReadFR(cfg trapezoid.Config, p float64, trials int, seed int64) (Result, error) {
	lay, err := trapezoid.NewLayout(cfg)
	if err != nil {
		return Result{}, err
	}
	ms, err := newMaskSampler(p, seed)
	if err != nil {
		return Result{}, err
	}
	var mask []bool
	res := Result{P: p, Seed: seed}
	for t := 0; t < trials; t++ {
		mask = ms.draw(lay.NbNodes(), mask)
		if _, _, ok := lay.ReadQuorum(func(pos int) bool { return mask[pos] }); ok {
			res.Successes++
		}
		res.Trials++
	}
	return res, nil
}

// ERCReadModel selects which read-success condition the structural
// ERC estimator applies.
type ERCReadModel int

const (
	// ModelEq13 reproduces equation (13) exactly: when the data node
	// is down, k available stripe nodes suffice (the version check is
	// waived, as the paper's P2 term assumes).
	ModelEq13 ERCReadModel = iota
	// ModelProtocol applies Algorithm 2 as specified: a version-check
	// quorum must exist at some level in every case.
	ModelProtocol
)

// EstimateReadERC estimates TRAP-ERC read availability under the
// chosen model. The stripe's k−1 data nodes outside the trapezoid are
// sampled too, since the decode condition depends on them.
func EstimateReadERC(e availability.ERCParams, model ERCReadModel, p float64, trials int, seed int64) (Result, error) {
	if err := e.Validate(); err != nil {
		return Result{}, err
	}
	lay, err := trapezoid.NewLayout(e.Config)
	if err != nil {
		return Result{}, err
	}
	ms, err := newMaskSampler(p, seed)
	if err != nil {
		return Result{}, err
	}
	nb := lay.NbNodes() // n-k+1: position 0 = N_i, 1.. = parity
	outside := e.K - 1  // other data nodes
	var mask []bool
	res := Result{P: p, Seed: seed}
	for t := 0; t < trials; t++ {
		mask = ms.draw(nb+outside, mask)
		if ercReadSucceeds(lay, e, model, mask) {
			res.Successes++
		}
		res.Trials++
	}
	return res, nil
}

// ercReadSucceeds evaluates one sampled state. mask[0..nb-1] are the
// trapezoid positions; mask[nb..] are the other data nodes.
func ercReadSucceeds(lay *trapezoid.Layout, e availability.ERCParams, model ERCReadModel, mask []bool) bool {
	nb := lay.NbNodes()
	cfg := e.Config
	checkOK := false
	for l := 0; l <= cfg.Shape.H; l++ {
		cnt := 0
		for _, pos := range lay.Level(l) {
			if mask[pos] {
				cnt++
			}
		}
		if cnt >= cfg.ReadThreshold(l) {
			checkOK = true
			break
		}
	}
	if mask[0] {
		// Data node up: Case 1 needs only the check.
		return checkOK
	}
	// Data node down: count available stripe nodes other than N_i —
	// parity (positions 1..nb-1) plus outside data nodes.
	avail := 0
	for pos := 1; pos < nb; pos++ {
		if mask[pos] {
			avail++
		}
	}
	for i := nb; i < len(mask); i++ {
		if mask[i] {
			avail++
		}
	}
	decodable := avail >= e.K
	if model == ModelEq13 {
		return decodable
	}
	return checkOK && decodable
}
