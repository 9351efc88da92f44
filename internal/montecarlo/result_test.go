package montecarlo

import (
	"math"
	"math/rand"
	"testing"
)

// Within reports whether a reference value lies inside the z-sigma
// confidence interval — the Monte-Carlo validation predicate.
func (r Result) Within(reference, z float64) bool {
	lo, hi := r.ConfidenceInterval(z)
	return reference >= lo && reference <= hi
}

// WithinScore is the score-test variant of Within: the standard error
// is computed from the reference value rather than the estimate, which
// stays meaningful when the estimate is degenerate (0 or 1 successes
// out of many trials collapse the Wald interval to a point).
func (r Result) WithinScore(reference, z float64) bool {
	if r.Trials == 0 {
		return false
	}
	se := math.Sqrt(reference * (1 - reference) / float64(r.Trials))
	return math.Abs(r.Estimate()-reference) <= z*se
}

func TestResultProportion(t *testing.T) {
	r := Result{Successes: 30, Trials: 100}
	if r.Estimate() != 0.3 {
		t.Fatalf("estimate = %v", r.Estimate())
	}
	want := math.Sqrt(0.3 * 0.7 / 100)
	if math.Abs(r.stdErr()-want) > 1e-12 {
		t.Fatalf("stderr = %v", r.stdErr())
	}
	lo, hi := r.ConfidenceInterval(1.96)
	if lo >= 0.3 || hi <= 0.3 {
		t.Fatalf("CI [%v,%v] excludes estimate", lo, hi)
	}
	if !r.Within(0.31, 1.96) {
		t.Fatal("0.31 should lie within the 95% CI of 0.3 at n=100")
	}
	if r.Within(0.5, 1.96) {
		t.Fatal("0.5 should lie outside")
	}
}

func TestResultWithinScore(t *testing.T) {
	// Degenerate estimate: 3000/3000 successes against a true value
	// of 0.99999 must pass the score test even though the Wald CI is
	// a point.
	r := Result{Successes: 3000, Trials: 3000}
	if !r.WithinScore(0.99999, 4) {
		t.Fatal("score test rejected a near-one reference")
	}
	if r.WithinScore(0.9, 4) {
		t.Fatal("score test accepted a far reference")
	}
	if (Result{}).WithinScore(0.5, 4) {
		t.Fatal("empty sample passed the score test")
	}
}

func TestResultEdges(t *testing.T) {
	empty := Result{}
	if empty.Estimate() != 0 || empty.stdErr() != 0 {
		t.Fatal("empty result misbehaves")
	}
	all := Result{Successes: 50, Trials: 50}
	lo, hi := all.ConfidenceInterval(3)
	if lo != 1 || hi != 1 {
		t.Fatalf("degenerate CI = [%v,%v]", lo, hi)
	}
	none := Result{Successes: 0, Trials: 50}
	lo, hi = none.ConfidenceInterval(3)
	if lo != 0 || hi != 0 {
		t.Fatalf("zero CI = [%v,%v]", lo, hi)
	}
}

func TestResultCICoverage(t *testing.T) {
	// Statistical sanity: across many simulated experiments with true
	// p = 0.4, the 3-sigma interval should almost always contain p.
	r := rand.New(rand.NewSource(5))
	misses := 0
	const experiments = 500
	for e := 0; e < experiments; e++ {
		succ := 0
		const trials = 400
		for i := 0; i < trials; i++ {
			if r.Float64() < 0.4 {
				succ++
			}
		}
		if !(Result{Successes: succ, Trials: trials}).Within(0.4, 3) {
			misses++
		}
	}
	if misses > 5 { // 3 sigma ⇒ ~0.3% expected
		t.Fatalf("%d of %d experiments missed the 3σ interval", misses, experiments)
	}
}
