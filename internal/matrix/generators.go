package matrix

import (
	"fmt"

	"trapquorum/internal/gf256"
)

// Vandermonde returns the rows×cols Vandermonde matrix with
// V[r][c] = r^c (elements of GF(2^8)). Any k rows of a k-column
// Vandermonde matrix with distinct evaluation points are linearly
// independent, which is the foundation of the MDS property.
// rows must not exceed 256 (distinct field elements).
func Vandermonde(rows, cols int) *Matrix {
	if rows > 256 {
		panic(fmt.Sprintf("matrix: Vandermonde rows %d exceeds field size", rows))
	}
	m := New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, gf256.Pow(byte(r), c))
		}
	}
	return m
}

// Systematic returns the n×k generator matrix of a systematic (n,k)
// MDS code: the top k×k block is the identity (original blocks are
// stored verbatim) and the bottom (n−k)×k block holds the parity
// coefficients α_{j,i} of the paper's equation (1).
//
// It is built by taking the n×k Vandermonde matrix and multiplying by
// the inverse of its top k×k block; the result keeps the property that
// every k×k submatrix is invertible, so any k of the n coded blocks
// reconstruct the data.
func Systematic(n, k int) (*Matrix, error) {
	if k <= 0 || n < k {
		return nil, fmt.Errorf("matrix: invalid code parameters n=%d k=%d", n, k)
	}
	if n > 256 {
		return nil, fmt.Errorf("matrix: n=%d exceeds field size", n)
	}
	v := Vandermonde(n, k)
	top := v.SubMatrix(0, k, 0, k)
	topInv, err := top.Invert()
	if err != nil {
		return nil, fmt.Errorf("matrix: Vandermonde top block not invertible: %w", err)
	}
	g := v.Mul(topInv)
	// Normalise exact identity on the top block to guard against any
	// latent construction error; the test suite verifies this holds.
	for r := 0; r < k; r++ {
		for c := 0; c < k; c++ {
			want := byte(0)
			if r == c {
				want = 1
			}
			if g.At(r, c) != want {
				return nil, fmt.Errorf("matrix: systematic top block not identity at (%d,%d)", r, c)
			}
		}
	}
	return g, nil
}
