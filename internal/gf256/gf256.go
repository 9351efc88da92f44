// Package gf256 implements arithmetic over the finite field GF(2^8).
//
// The field is constructed from the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the conventional choice for
// Reed-Solomon style erasure codes. Addition and subtraction are both
// XOR; multiplication and division are table-driven.
//
// The package is the arithmetic substrate for the (n,k) MDS erasure code
// used by the TRAP-ERC protocol: parity blocks are linear combinations
// b_j = Σ α_{j,i}·b_i with coefficients α in GF(2^8), and the in-place
// parity updates of Algorithm 1 rely on the commutativity of this field.
package gf256

import "fmt"

// Poly is the primitive polynomial that defines the field, with the x^8
// term included (0x11d = x^8 + x^4 + x^3 + x^2 + 1).
const Poly = 0x11d

// Order is the number of elements in the field.
const Order = 256

// generator is a primitive element of the field; powers of it enumerate
// all 255 non-zero elements.
const generator = 0x02

var (
	// expTable[i] = generator^i. Doubled to 512 entries so that
	// Mul can index exp[log[a]+log[b]] without a modular reduction.
	expTable [512]byte
	// logTable[x] = i such that generator^i = x, for x != 0.
	logTable [256]int
	// mulTable[a][b] = a*b. 64 KiB; makes the slice kernels a single
	// table row lookup per element.
	mulTable [256][256]byte
	// invTable[x] = x^-1 for x != 0; invTable[0] = 0 (unused).
	invTable [256]byte
)

func init() { initBaseTables() }

// baseTablesReady guards initBaseTables: the per-arch SIMD init
// functions derive their product tables from mulTable, and package init
// order is file-name order, so they must be able to force base-table
// construction first.
var baseTablesReady bool

func initBaseTables() {
	if baseTablesReady {
		return
	}
	baseTablesReady = true
	x := 1
	for i := 0; i < 255; i++ {
		expTable[i] = byte(x)
		logTable[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	if x != 1 {
		panic("gf256: 0x11d is not primitive (internal error)")
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			mulTable[a][b] = mulSlow(byte(a), byte(b))
		}
	}
	for x := 1; x < 256; x++ {
		invTable[x] = expTable[255-logTable[x]]
	}
}

// mulSlow multiplies two field elements by shift-and-add ("Russian
// peasant") reduction. It is used only to build the tables and as a
// cross-check in tests.
func mulSlow(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		carry := a & 0x80
		a <<= 1
		if carry != 0 {
			a ^= byte(Poly & 0xff)
		}
		b >>= 1
	}
	return p
}

// Add returns a + b in GF(2^8). Addition is XOR.
func Add(a, b byte) byte { return a ^ b }

// Sub returns a - b in GF(2^8). In characteristic 2 subtraction equals
// addition, so this is also XOR.
func Sub(a, b byte) byte { return a ^ b }

// Mul returns a * b in GF(2^8).
func Mul(a, b byte) byte { return mulTable[a][b] }

// Inv returns the multiplicative inverse of a. It panics if a is zero.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: zero has no inverse")
	}
	return invTable[a]
}

// Exp returns generator^e for e >= 0.
func Exp(e int) byte {
	if e < 0 {
		panic(fmt.Sprintf("gf256: negative exponent %d", e))
	}
	return expTable[e%255]
}

// Pow returns a^e for e >= 0, with 0^0 = 1.
func Pow(a byte, e int) byte {
	if e < 0 {
		panic(fmt.Sprintf("gf256: negative exponent %d", e))
	}
	if e == 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	return expTable[(logTable[a]*e)%255]
}
