// Package quorum implements the classical quorum systems the paper's
// related-work section positions the trapezoid protocol against:
// ROWA (read one / write all), Majority [Thomas 1979], the Grid
// protocol [Cheung, Ammar, Ahamad 1990] and the Tree quorum protocol
// [Agrawal, El Abbadi 1991]. They serve as baselines in the ablation
// benches: same node count, different quorum geometry.
//
// Every system exposes both the constructive side (assemble a quorum
// from currently available nodes) and the analytic side (closed-form
// read/write availability at node availability p). The test suite
// cross-checks the two by exhaustive state enumeration.
package quorum

// System is a quorum system over nodes labelled 0..Size()-1.
type System interface {
	// Name identifies the system in tables and benches.
	Name() string
	// Size returns the number of nodes the system manages.
	Size() int
	// WriteQuorum assembles a write quorum from available nodes,
	// returning ok=false when none exists.
	WriteQuorum(available func(node int) bool) (quorum []int, ok bool)
	// ReadQuorum assembles a read quorum from available nodes.
	ReadQuorum(available func(node int) bool) (quorum []int, ok bool)
	// WriteAvailability returns the probability a write quorum exists
	// when each node is independently available with probability p.
	WriteAvailability(p float64) float64
	// ReadAvailability returns the probability a read quorum exists.
	ReadAvailability(p float64) float64
}
