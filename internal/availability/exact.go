package availability

import "trapquorum/internal/trapezoid"

// ReadERCExact computes the exact structural read availability of
// Algorithm 2 by enumerating every up/down state of the trapezoid's
// n−k+1 nodes (2^(n−k+1) states, fine for the paper's sizes).
//
// It differs from equation (13) in the N_i-down case: the paper's P2
// term only requires k of the remaining n−1 stripe nodes for decoding,
// whereas the protocol as specified must additionally assemble a
// version-check quorum of r_l nodes at some trapezoid level before it
// decodes. ReadERCExact therefore lower-bounds ReadERC; the gap closes
// as p grows. EXPERIMENTS.md quantifies the difference.
//
// State model (quiescent, matching §IV): every node holds the latest
// version; availability is the only obstacle. Trapezoid position 0 is
// N_i; positions 1..n−k are the parity nodes; the k−1 data nodes of
// other blocks live outside the trapezoid and only matter through the
// decode condition, so they are folded in analytically via Phi.
func ReadERCExact(e ERCParams, p float64) (float64, error) {
	if err := e.Validate(); err != nil {
		return 0, err
	}
	lay, err := trapezoid.NewLayout(e.Config)
	if err != nil {
		return 0, err
	}
	nb := lay.NbNodes() // n-k+1
	cfg := e.Config
	total := 0.0
	for state := 0; state < 1<<uint(nb); state++ {
		up := func(pos int) bool { return state&(1<<uint(pos)) != 0 }
		// Probability of this trapezoid state.
		prob := 1.0
		upCount := 0
		for pos := 0; pos < nb; pos++ {
			if up(pos) {
				prob *= p
				upCount++
			} else {
				prob *= 1 - p
			}
		}
		if prob == 0 {
			continue
		}
		// Version check: does any level reach r_l available nodes?
		checkOK := false
		for l := 0; l <= cfg.Shape.H; l++ {
			cnt := 0
			for _, pos := range lay.Level(l) {
				if up(pos) {
					cnt++
				}
			}
			if cnt >= cfg.ReadThreshold(l) {
				checkOK = true
				break
			}
		}
		if !checkOK {
			continue
		}
		if up(0) {
			// N_i serves the block directly (Case 1).
			total += prob
			continue
		}
		// Case 2: decode needs >= k up among the n-1 non-N_i stripe
		// nodes: the parity nodes (in-trapezoid, positions 1..nb-1)
		// plus the k-1 other data nodes (outside, Binomial(k-1, p)).
		parityUp := upCount // up(0) is false here, so all ups are parity
		need := e.K - parityUp
		total += prob * Phi(e.K-1, need, e.K-1, p)
	}
	return total, nil
}
