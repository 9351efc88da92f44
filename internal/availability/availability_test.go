package availability

import (
	"math"
	"testing"
	"testing/quick"

	"trapquorum/internal/trapezoid"
)

const eps = 1e-9

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func fig3Params(t testing.TB) ERCParams {
	t.Helper()
	cfg, err := trapezoid.NewConfig(trapezoid.Shape{A: 2, B: 3, H: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return ERCParams{Config: cfg, N: 15, K: 8}
}

func TestBinomialKnown(t *testing.T) {
	cases := []struct {
		z, m int
		want float64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {14, 7, 3432},
		{5, 6, 0}, {5, -1, 0}, {-1, 0, 0}, {52, 5, 2598960},
	}
	for _, c := range cases {
		if got := Binomial(c.z, c.m); !approx(got, c.want, 1e-6*math.Max(1, c.want)) {
			t.Errorf("Binomial(%d,%d) = %v, want %v", c.z, c.m, got, c.want)
		}
	}
}

func TestBinomialSymmetry(t *testing.T) {
	f := func(zRaw, mRaw uint8) bool {
		z := int(zRaw % 40)
		m := int(mRaw%40) % (z + 1)
		return approx(Binomial(z, m), Binomial(z, z-m), 1e-6*Binomial(z, m)+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPhiFullRangeIsOne(t *testing.T) {
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 1} {
		for z := 0; z <= 20; z++ {
			if got := Phi(z, 0, z, p); !approx(got, 1, 1e-9) {
				t.Fatalf("Phi(%d,0,%d,%v) = %v, want 1", z, z, p, got)
			}
		}
	}
}

func TestPhiEmptyRange(t *testing.T) {
	if Phi(5, 3, 2, 0.5) != 0 {
		t.Fatal("Phi with i>j should be 0")
	}
}

func TestPhiClamping(t *testing.T) {
	if got := Phi(5, -3, 99, 0.5); !approx(got, 1, eps) {
		t.Fatalf("clamped full range = %v", got)
	}
}

func TestPhiEdgeProbabilities(t *testing.T) {
	// p = 1: all z nodes up, so Phi counts 1 iff the range includes z.
	if got := Phi(4, 4, 4, 1); !approx(got, 1, eps) {
		t.Fatalf("Phi(4,4,4,1) = %v", got)
	}
	if got := Phi(4, 0, 3, 1); !approx(got, 0, eps) {
		t.Fatalf("Phi(4,0,3,1) = %v", got)
	}
	// p = 0: zero nodes up.
	if got := Phi(4, 0, 0, 0); !approx(got, 1, eps) {
		t.Fatalf("Phi(4,0,0,0) = %v", got)
	}
	if got := Phi(4, 1, 4, 0); !approx(got, 0, eps) {
		t.Fatalf("Phi(4,1,4,0) = %v", got)
	}
}

func TestPhiKnownValue(t *testing.T) {
	// Bin(14, 0.5): P(X >= 8) = 6476/16384.
	want := 6476.0 / 16384.0
	if got := Phi(14, 8, 14, 0.5); !approx(got, want, 1e-12) {
		t.Fatalf("Phi(14,8,14,0.5) = %v, want %v", got, want)
	}
}

func TestPhiTailMonotonicInP(t *testing.T) {
	prev := -1.0
	for p := 0.0; p <= 1.0001; p += 0.05 {
		cur := Phi(9, 5, 9, p)
		if cur+1e-12 < prev {
			t.Fatalf("tail Phi not monotone at p=%v", p)
		}
		prev = cur
	}
}

func TestPhiNegativeZPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Phi(-1, 0, 0, 0.5)
}

func TestWriteEndpoints(t *testing.T) {
	cfg, _ := trapezoid.NewConfig(trapezoid.Shape{A: 2, B: 3, H: 2}, 3)
	if got := Write(cfg, 1); !approx(got, 1, eps) {
		t.Fatalf("Write(p=1) = %v", got)
	}
	if got := Write(cfg, 0); !approx(got, 0, eps) {
		t.Fatalf("Write(p=0) = %v", got)
	}
}

func TestWriteMonotonicInP(t *testing.T) {
	cfg, _ := trapezoid.NewConfig(trapezoid.Shape{A: 2, B: 3, H: 2}, 3)
	prev := -1.0
	for p := 0.0; p <= 1.0001; p += 0.02 {
		cur := Write(cfg, p)
		if cur+1e-12 < prev {
			t.Fatalf("Write not monotone at p=%v", p)
		}
		prev = cur
	}
}

// TestFig3PaperNumbers pins the quantitative claims of the paper's
// Figure 3 discussion: with the reconstructed parameters, at p = 0.5
// full replication reads are ~75% available and ERC reads ~63%.
func TestFig3PaperNumbers(t *testing.T) {
	e := fig3Params(t)
	fr := ReadFR(e.Config, 0.5)
	if !approx(fr, 0.75, 1e-12) {
		t.Fatalf("ReadFR(0.5) = %v, want exactly 0.75", fr)
	}
	erc, err := ReadERC(e, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// P1 = 0.5*(1 - 0.25*0.5) = 0.4375; P2 = 0.5 * 6476/16384.
	want := 0.4375 + 0.5*6476.0/16384.0
	if !approx(erc, want, 1e-12) {
		t.Fatalf("ReadERC(0.5) = %v, want %v", erc, want)
	}
	if erc < 0.63 || erc > 0.64 {
		t.Fatalf("ReadERC(0.5) = %v, paper quotes ~63%%", erc)
	}
}

// TestFig3HighPConvergence pins the paper's second claim: "there is no
// difference when p >= 0.8".
func TestFig3HighPConvergence(t *testing.T) {
	e := fig3Params(t)
	for _, p := range []float64{0.8, 0.85, 0.9, 0.95, 0.99} {
		fr := ReadFR(e.Config, p)
		erc, err := ReadERC(e, p)
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(fr - erc); diff > 0.01 {
			t.Fatalf("p=%v: |FR-ERC| = %v, paper claims indistinguishable", p, diff)
		}
	}
}

// TestFig3LowPGap verifies the ordering the figure shows: below
// p ≈ 0.8, full replication reads are strictly more available.
func TestFig3LowPGap(t *testing.T) {
	e := fig3Params(t)
	for _, p := range []float64{0.3, 0.4, 0.5, 0.6} {
		fr := ReadFR(e.Config, p)
		erc, err := ReadERC(e, p)
		if err != nil {
			t.Fatal(err)
		}
		if fr <= erc {
			t.Fatalf("p=%v: FR %v <= ERC %v, expected FR above", p, fr, erc)
		}
	}
}

func TestReadERCPartsSum(t *testing.T) {
	e := fig3Params(t)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		p1, p2, err := ReadERCParts(e, p)
		if err != nil {
			t.Fatal(err)
		}
		total, err := ReadERC(e, p)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(p1+p2, total, eps) {
			t.Fatalf("p=%v: parts %v+%v != total %v", p, p1, p2, total)
		}
		if p1 < 0 || p2 < 0 || total > 1+eps {
			t.Fatalf("p=%v: invalid probabilities p1=%v p2=%v", p, p1, p2)
		}
	}
}

func TestERCParamsValidate(t *testing.T) {
	cfg, _ := trapezoid.NewConfig(trapezoid.Shape{A: 2, B: 3, H: 1}, 3) // 8 nodes
	if err := (ERCParams{Config: cfg, N: 15, K: 8}).Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	if err := (ERCParams{Config: cfg, N: 15, K: 9}).Validate(); err == nil {
		t.Fatal("mismatched Nbnode accepted")
	}
	if err := (ERCParams{Config: cfg, N: 7, K: 0}).Validate(); err == nil {
		t.Fatal("k=0 accepted")
	}
	if err := (ERCParams{Config: cfg, N: 5, K: 8}).Validate(); err == nil {
		t.Fatal("n<k accepted")
	}
}

// TestFig4RedundancyOrdering pins Figure 4's message: more redundant
// blocks (larger n−k) means better ERC read availability at fixed p.
func TestFig4RedundancyOrdering(t *testing.T) {
	configs := []struct {
		shape trapezoid.Shape
		w     int
		n, k  int
	}{
		{trapezoid.Shape{A: 2, B: 2, H: 1}, 2, 15, 10}, // n-k+1 = 6
		{trapezoid.Shape{A: 2, B: 3, H: 1}, 3, 15, 8},  // n-k+1 = 8
		{trapezoid.Shape{A: 4, B: 3, H: 1}, 4, 15, 6},  // n-k+1 = 10
		{trapezoid.Shape{A: 1, B: 3, H: 2}, 3, 15, 4},  // n-k+1 = 12
	}
	for _, p := range []float64{0.5, 0.6, 0.7} {
		prev := -1.0
		for _, c := range configs {
			cfg, err := trapezoid.NewConfig(c.shape, c.w)
			if err != nil {
				t.Fatal(err)
			}
			erc, err := ReadERC(ERCParams{Config: cfg, N: c.n, K: c.k}, p)
			if err != nil {
				t.Fatal(err)
			}
			if erc <= prev {
				t.Fatalf("p=%v: availability %v not increasing with n-k (prev %v)", p, erc, prev)
			}
			prev = erc
		}
	}
}

func TestStorageEquations(t *testing.T) {
	// Paper Fig. 5 example: n=15, k=8 → FR uses 8 blocks.
	if got := StorageFR(15, 8); got != 8 {
		t.Fatalf("StorageFR(15,8) = %v, want 8", got)
	}
	if got := StorageERC(15, 8); !approx(got, 15.0/8.0, eps) {
		t.Fatalf("StorageERC(15,8) = %v, want 1.875", got)
	}
	// ERC always at most FR for n >= k >= 1.
	for n := 1; n <= 30; n++ {
		for k := 1; k <= n; k++ {
			if StorageERC(n, k) > StorageFR(n, k)+eps {
				t.Fatalf("ERC storage exceeds FR at n=%d k=%d", n, k)
			}
		}
	}
}

// WriteExact computes write availability by enumerating every state
// of the trapezoid's nodes, as an independent cross-check of the
// product form of equations (8)/(9).
func WriteExact(cfg trapezoid.Config, p float64) (float64, error) {
	lay, err := trapezoid.NewLayout(cfg)
	if err != nil {
		return 0, err
	}
	nb := lay.NbNodes()
	total := 0.0
	for state := 0; state < 1<<uint(nb); state++ {
		prob := 1.0
		for pos := 0; pos < nb; pos++ {
			if state&(1<<uint(pos)) != 0 {
				prob *= p
			} else {
				prob *= 1 - p
			}
		}
		if prob == 0 {
			continue
		}
		ok := true
		for l := 0; l <= cfg.Shape.H && ok; l++ {
			cnt := 0
			for _, pos := range lay.Level(l) {
				if state&(1<<uint(pos)) != 0 {
					cnt++
				}
			}
			if cnt < cfg.W[l] {
				ok = false
			}
		}
		if ok {
			total += prob
		}
	}
	return total, nil
}

// ReadFRExact computes full-replication read availability by
// enumeration, cross-checking equation (10).
func ReadFRExact(cfg trapezoid.Config, p float64) (float64, error) {
	lay, err := trapezoid.NewLayout(cfg)
	if err != nil {
		return 0, err
	}
	nb := lay.NbNodes()
	total := 0.0
	for state := 0; state < 1<<uint(nb); state++ {
		prob := 1.0
		for pos := 0; pos < nb; pos++ {
			if state&(1<<uint(pos)) != 0 {
				prob *= p
			} else {
				prob *= 1 - p
			}
		}
		if prob == 0 {
			continue
		}
		for l := 0; l <= cfg.Shape.H; l++ {
			cnt := 0
			for _, pos := range lay.Level(l) {
				if state&(1<<uint(pos)) != 0 {
					cnt++
				}
			}
			if cnt >= cfg.ReadThreshold(l) {
				total += prob
				break
			}
		}
	}
	return total, nil
}

func TestWriteMatchesExactEnumeration(t *testing.T) {
	cfg, _ := trapezoid.NewConfig(trapezoid.Shape{A: 2, B: 3, H: 1}, 3)
	for _, p := range []float64{0.2, 0.5, 0.8, 0.95} {
		exact, err := WriteExact(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := Write(cfg, p); !approx(got, exact, 1e-9) {
			t.Fatalf("p=%v: Write=%v exact=%v", p, got, exact)
		}
	}
}

func TestReadFRMatchesExactEnumeration(t *testing.T) {
	cfg, _ := trapezoid.NewConfig(trapezoid.Shape{A: 2, B: 3, H: 1}, 3)
	for _, p := range []float64{0.2, 0.5, 0.8, 0.95} {
		exact, err := ReadFRExact(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if got := ReadFR(cfg, p); !approx(got, exact, 1e-9) {
			t.Fatalf("p=%v: ReadFR=%v exact=%v", p, got, exact)
		}
	}
}

// TestReadERCExactLowerBoundsEq13 documents the relationship between
// the paper's equation (13) and the protocol as actually specified:
// the P2 term of eq. 13 skips the version-check requirement when N_i
// is down, so eq. 13 can only over-estimate. The gap must vanish as
// p → 1.
func TestReadERCExactLowerBoundsEq13(t *testing.T) {
	e := fig3Params(t)
	for _, p := range []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		exact, err := ReadERCExact(e, p)
		if err != nil {
			t.Fatal(err)
		}
		eq13, err := ReadERC(e, p)
		if err != nil {
			t.Fatal(err)
		}
		if exact > eq13+1e-9 {
			t.Fatalf("p=%v: exact %v exceeds eq13 %v", p, exact, eq13)
		}
	}
	exactHi, _ := ReadERCExact(e, 0.99)
	eq13Hi, _ := ReadERC(e, 0.99)
	if math.Abs(exactHi-eq13Hi) > 1e-3 {
		t.Fatalf("gap at p=0.99 = %v, should be negligible", math.Abs(exactHi-eq13Hi))
	}
}

func TestReadERCExactEndpoints(t *testing.T) {
	e := fig3Params(t)
	lo, err := ReadERCExact(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(lo, 0, eps) {
		t.Fatalf("exact at p=0 = %v", lo)
	}
	hi, err := ReadERCExact(e, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(hi, 1, eps) {
		t.Fatalf("exact at p=1 = %v", hi)
	}
}

func TestExactValidation(t *testing.T) {
	cfg, _ := trapezoid.NewConfig(trapezoid.Shape{A: 2, B: 3, H: 1}, 3)
	if _, err := ReadERCExact(ERCParams{Config: cfg, N: 15, K: 9}, 0.5); err == nil {
		t.Fatal("mismatched params accepted")
	}
}

// TestFig2WriteUnaffectedByW0Level checks the Figure-2 family: for the
// Figure-1 trapezoid, increasing w lowers write availability at every
// p in (0,1).
func TestFig2WriteOrderingInW(t *testing.T) {
	shape := trapezoid.Shape{A: 2, B: 3, H: 2}
	for _, p := range []float64{0.3, 0.5, 0.7, 0.9} {
		prev := 2.0
		for w := 1; w <= 5; w++ {
			cfg, err := trapezoid.NewConfig(shape, w)
			if err != nil {
				t.Fatal(err)
			}
			cur := Write(cfg, p)
			if cur >= prev {
				t.Fatalf("p=%v w=%d: write availability %v not decreasing (prev %v)", p, w, cur, prev)
			}
			prev = cur
		}
	}
}

// TestPaperFig2HighPClaim pins "write availability is not
// significantly impacted ... for usual values of p (p > 0.9)".
func TestPaperFig2HighPClaim(t *testing.T) {
	shape := trapezoid.Shape{A: 2, B: 3, H: 2}
	for _, p := range []float64{0.95, 0.99} {
		lo, hi := 2.0, -1.0
		for w := 1; w <= 3; w++ {
			cfg, _ := trapezoid.NewConfig(shape, w)
			v := Write(cfg, p)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if hi-lo > 0.02 {
			t.Fatalf("p=%v: write availability spread %v across w=1..3, paper claims small", p, hi-lo)
		}
	}
}

func BenchmarkReadERC(b *testing.B) {
	cfg, _ := trapezoid.NewConfig(trapezoid.Shape{A: 2, B: 3, H: 1}, 3)
	e := ERCParams{Config: cfg, N: 15, K: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadERC(e, 0.73); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadERCExact(b *testing.B) {
	cfg, _ := trapezoid.NewConfig(trapezoid.Shape{A: 2, B: 3, H: 1}, 3)
	e := ERCParams{Config: cfg, N: 15, K: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadERCExact(e, 0.73); err != nil {
			b.Fatal(err)
		}
	}
}
