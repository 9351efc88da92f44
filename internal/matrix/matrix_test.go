package matrix

import (
	"math/rand"
	"strings"
	"testing"

	"trapquorum/internal/gf256"
)

func randMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = byte(r.Intn(256))
	}
	return m
}

func TestNewZeroFilled(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			if m.At(r, c) != 0 {
				t.Fatalf("At(%d,%d) = %d, want 0", r, c, m.At(r, c))
			}
		}
	}
}

func TestNewInvalidPanics(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestSetAt(t *testing.T) {
	m := New(2, 2)
	m.Set(1, 0, 0xab)
	if m.At(1, 0) != 0xab {
		t.Fatal("Set/At round trip failed")
	}
}

func TestAtOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("At(2,0) did not panic")
		}
	}()
	m.At(2, 0)
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]byte{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatal("FromRows wrong contents")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]byte{{1, 2}, {3}})
}

func TestIdentityMulIsNoop(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := randMatrix(r, 5, 5)
	if !Identity(5).Mul(m).Equal(m) {
		t.Fatal("I*m != m")
	}
	if !m.Mul(Identity(5)).Equal(m) {
		t.Fatal("m*I != m")
	}
}

func TestMulAssociative(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		a := randMatrix(r, 4, 3)
		b := randMatrix(r, 3, 5)
		c := randMatrix(r, 5, 2)
		if !a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c))) {
			t.Fatal("(ab)c != a(bc)")
		}
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("shape mismatch did not panic")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]byte{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestEqual(t *testing.T) {
	a := FromRows([][]byte{{1, 2}})
	if a.Equal(FromRows([][]byte{{1, 3}})) {
		t.Fatal("different contents reported equal")
	}
	if a.Equal(New(2, 1)) {
		t.Fatal("different shapes reported equal")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone not equal")
	}
}

func TestSelectRows(t *testing.T) {
	m := FromRows([][]byte{{1, 1}, {2, 2}, {3, 3}})
	s := m.SelectRows([]int{2, 0, 2})
	want := FromRows([][]byte{{3, 3}, {1, 1}, {3, 3}})
	if !s.Equal(want) {
		t.Fatalf("SelectRows = \n%v want \n%v", s, want)
	}
}

func TestSelectRowsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range SelectRows did not panic")
		}
	}()
	New(2, 2).SelectRows([]int{0, 3})
}

func TestAugmentAndSubMatrix(t *testing.T) {
	a := FromRows([][]byte{{1, 2}, {3, 4}})
	b := FromRows([][]byte{{5}, {6}})
	aug := a.Augment(b)
	if aug.Cols() != 3 || aug.At(0, 2) != 5 || aug.At(1, 2) != 6 {
		t.Fatalf("Augment wrong: \n%v", aug)
	}
	back := aug.SubMatrix(0, 2, 0, 2)
	if !back.Equal(a) {
		t.Fatal("SubMatrix did not recover left block")
	}
}

func TestSwapRows(t *testing.T) {
	m := FromRows([][]byte{{1, 1}, {2, 2}})
	m.SwapRows(0, 1)
	if m.At(0, 0) != 2 || m.At(1, 0) != 1 {
		t.Fatal("SwapRows failed")
	}
	m.SwapRows(1, 1) // no-op must not corrupt
	if m.At(1, 0) != 1 {
		t.Fatal("self-swap corrupted row")
	}
}

func TestRowCopies(t *testing.T) {
	m := FromRows([][]byte{{7, 8}})
	row := m.Row(0)
	row[0] = 0
	if m.At(0, 0) != 7 {
		t.Fatal("Row returned a view, want a copy")
	}
}

func TestString(t *testing.T) {
	s := FromRows([][]byte{{0, 255}}).String()
	if !strings.Contains(s, "00 ff") {
		t.Fatalf("String() = %q", s)
	}
}

func TestInvertRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	found := 0
	for trial := 0; trial < 100 && found < 30; trial++ {
		n := 1 + r.Intn(8)
		m := randMatrix(r, n, n)
		inv, err := m.Invert()
		if err != nil {
			continue // singular random matrix; skip
		}
		found++
		if !m.Mul(inv).Equal(Identity(n)) {
			t.Fatalf("m * m^-1 != I for\n%v", m)
		}
		if !inv.Mul(m).Equal(Identity(n)) {
			t.Fatalf("m^-1 * m != I for\n%v", m)
		}
	}
	if found < 30 {
		t.Fatalf("only %d invertible samples; RNG suspicious", found)
	}
}

func TestInvertSingular(t *testing.T) {
	m := FromRows([][]byte{{1, 2}, {1, 2}})
	if _, err := m.Invert(); err != ErrSingular {
		t.Fatalf("Invert singular err = %v, want ErrSingular", err)
	}
	if !m.IsSingular() {
		t.Fatal("IsSingular false for singular matrix")
	}
}

func TestInvertNonSquare(t *testing.T) {
	if _, err := New(2, 3).Invert(); err == nil {
		t.Fatal("non-square Invert succeeded")
	}
	if !New(2, 3).IsSingular() {
		t.Fatal("non-square IsSingular false")
	}
}

func TestInvertDoesNotModifyReceiver(t *testing.T) {
	m := FromRows([][]byte{{1, 2}, {3, 4}})
	orig := m.Clone()
	if _, err := m.Invert(); err != nil {
		t.Fatal(err)
	}
	if !m.Equal(orig) {
		t.Fatal("Invert modified receiver")
	}
}

func TestVandermondeEntries(t *testing.T) {
	v := Vandermonde(4, 3)
	for r := 0; r < 4; r++ {
		for c := 0; c < 3; c++ {
			if v.At(r, c) != gf256.Pow(byte(r), c) {
				t.Fatalf("V[%d][%d] wrong", r, c)
			}
		}
	}
}

func TestVandermondeAnyKRowsInvertible(t *testing.T) {
	const n, k = 10, 4
	v := Vandermonde(n, k)
	// Exhaustively check all C(10,4) = 210 row subsets.
	idx := []int{0, 1, 2, 3}
	for {
		sub := v.SelectRows(idx)
		if sub.IsSingular() {
			t.Fatalf("Vandermonde rows %v singular", idx)
		}
		// next combination
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

func TestVandermondeTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Vandermonde(257,...) did not panic")
		}
	}()
	Vandermonde(257, 2)
}

func TestCauchyAllSquareSubmatricesInvertible(t *testing.T) {
	c := Cauchy(6, 4)
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		size := 1 + r.Intn(4)
		rows := r.Perm(6)[:size]
		cols := r.Perm(4)[:size]
		sub := New(size, size)
		for i, rr := range rows {
			for j, cc := range cols {
				sub.Set(i, j, c.At(rr, cc))
			}
		}
		if sub.IsSingular() {
			t.Fatalf("Cauchy submatrix rows=%v cols=%v singular", rows, cols)
		}
	}
}

func TestCauchyTooLargePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("oversized Cauchy did not panic")
		}
	}()
	Cauchy(200, 100)
}

func TestSystematicTopIdentity(t *testing.T) {
	g, err := Systematic(9, 6)
	if err != nil {
		t.Fatal(err)
	}
	if g.Rows() != 9 || g.Cols() != 6 {
		t.Fatalf("shape %dx%d", g.Rows(), g.Cols())
	}
	if !g.SubMatrix(0, 6, 0, 6).Equal(Identity(6)) {
		t.Fatal("top block is not the identity")
	}
}

func TestSystematicAnyKRowsInvertible(t *testing.T) {
	const n, k = 9, 5
	g, err := Systematic(n, k)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{0, 1, 2, 3, 4}
	for {
		if g.SelectRows(idx).IsSingular() {
			t.Fatalf("systematic rows %v singular (MDS violated)", idx)
		}
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

func TestSystematicParameterValidation(t *testing.T) {
	if _, err := Systematic(3, 5); err == nil {
		t.Fatal("n<k accepted")
	}
	if _, err := Systematic(5, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := Systematic(300, 5); err == nil {
		t.Fatal("n>256 accepted")
	}
	if _, err := Systematic(5, 5); err != nil {
		t.Fatalf("n=k rejected: %v", err)
	}
}

func TestInvertLarge(t *testing.T) {
	// A 32x32 Cauchy-derived matrix inverts and round-trips.
	m := Cauchy(32, 32)
	inv, err := m.Invert()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Mul(inv).Equal(Identity(32)) {
		t.Fatal("32x32 inversion round trip failed")
	}
}

func BenchmarkInvert16(b *testing.B) {
	m := Cauchy(16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Invert(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMul16(b *testing.B) {
	r := rand.New(rand.NewSource(6))
	x := randMatrix(r, 16, 16)
	y := randMatrix(r, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Mul(y)
	}
}
