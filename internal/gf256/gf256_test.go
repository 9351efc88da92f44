package gf256

import (
	"testing"
	"testing/quick"
)

func TestAddIsXor(t *testing.T) {
	f := func(a, b byte) bool { return Add(a, b) == a^b && Sub(a, b) == a^b }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAddSelfIsZero(t *testing.T) {
	f := func(a byte) bool { return Add(a, a) == 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulMatchesSlow(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), mulSlow(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestMulCommutative(t *testing.T) {
	f := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistributive(t *testing.T) {
	f := func(a, b, c byte) bool { return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulIdentity(t *testing.T) {
	for a := 0; a < 256; a++ {
		if Mul(byte(a), 1) != byte(a) {
			t.Fatalf("Mul(%d, 1) != %d", a, a)
		}
		if Mul(byte(a), 0) != 0 {
			t.Fatalf("Mul(%d, 0) != 0", a)
		}
	}
}

func TestInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if Mul(byte(a), inv) != 1 {
			t.Fatalf("a=%d: a * Inv(a) = %d, want 1", a, Mul(byte(a), inv))
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestDiv(t *testing.T) {
	f := func(a, b byte) bool {
		if b == 0 {
			return true
		}
		return Mul(Div(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div(1, 0) did not panic")
		}
	}()
	Div(1, 0)
}

func TestDivZeroNumerator(t *testing.T) {
	for b := 1; b < 256; b++ {
		if Div(0, byte(b)) != 0 {
			t.Fatalf("Div(0, %d) != 0", b)
		}
	}
}

func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Exp(Log(byte(a))) != byte(a) {
			t.Fatalf("Exp(Log(%d)) != %d", a, a)
		}
	}
}

func TestLogZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log(0) did not panic")
		}
	}()
	Log(0)
}

func TestExpPeriod255(t *testing.T) {
	for e := 0; e < 255; e++ {
		if Exp(e) != Exp(e+255) {
			t.Fatalf("Exp(%d) != Exp(%d)", e, e+255)
		}
	}
}

func TestGeneratorIsPrimitive(t *testing.T) {
	// The powers of the generator must enumerate every non-zero element
	// exactly once: that is what makes Vandermonde rows distinct.
	seen := make(map[byte]bool)
	for e := 0; e < 255; e++ {
		seen[Exp(e)] = true
	}
	if len(seen) != 255 {
		t.Fatalf("generator powers cover %d elements, want 255", len(seen))
	}
	if seen[0] {
		t.Fatal("generator power produced zero")
	}
}

func TestPow(t *testing.T) {
	for a := 0; a < 256; a++ {
		want := byte(1)
		for e := 0; e <= 9; e++ {
			if got := Pow(byte(a), e); got != want {
				t.Fatalf("Pow(%d,%d) = %d, want %d", a, e, got, want)
			}
			want = Mul(want, byte(a))
		}
	}
}

func TestPowZeroZero(t *testing.T) {
	if Pow(0, 0) != 1 {
		t.Fatal("Pow(0,0) != 1")
	}
	if Pow(0, 3) != 0 {
		t.Fatal("Pow(0,3) != 0")
	}
}

func TestPowNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pow(2,-1) did not panic")
		}
	}()
	Pow(2, -1)
}

func TestExpNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(-1) did not panic")
		}
	}()
	Exp(-1)
}

func TestKnownValues(t *testing.T) {
	// Hand-checked products under polynomial 0x11d.
	cases := []struct{ a, b, want byte }{
		{2, 2, 4},
		{0x80, 2, 0x1d}, // overflow wraps through the polynomial
		{2, 0x8e, 1},    // x * (x^7+x^3+x^2+x) = x^8+x^4+x^3+x^2 = 1 mod 0x11d
	}
	for _, c := range cases {
		if got := Mul(c.a, c.b); got != c.want {
			t.Errorf("Mul(%#x,%#x) = %#x, want %#x", c.a, c.b, got, c.want)
		}
	}
}

func TestNoZeroDivisors(t *testing.T) {
	for a := 1; a < 256; a++ {
		for b := 1; b < 256; b++ {
			if Mul(byte(a), byte(b)) == 0 {
				t.Fatalf("zero divisor: %d * %d = 0", a, b)
			}
		}
	}
}

// Div and Log are test oracles over the field tables: nothing outside
// the tests divides or takes logarithms.

// Div returns a / b in GF(2^8). It panics if b is zero.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[logTable[a]+255-logTable[b]]
}

// Log returns the discrete logarithm of a with respect to the field
// generator. It panics if a is zero.
func Log(a byte) int {
	if a == 0 {
		panic("gf256: log of zero")
	}
	return logTable[a]
}
