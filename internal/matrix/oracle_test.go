package matrix

import (
	"fmt"

	"trapquorum/internal/gf256"
)

// The two oracles below exist for the tests: Cauchy supplies matrices
// known to be invertible, and IsSingular judges invertibility without
// going through Invert.

// Cauchy returns the rows×cols Cauchy matrix with
// C[r][c] = 1 / (x_r + y_c) where x_r = r and y_c = rows + c. Every
// square submatrix of a Cauchy matrix is invertible. rows+cols must not
// exceed 256 so that all x and y are distinct field elements.
func Cauchy(rows, cols int) *Matrix {
	if rows+cols > 256 {
		panic(fmt.Sprintf("matrix: Cauchy %d+%d exceeds field size", rows, cols))
	}
	m := New(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			x := byte(r)
			y := byte(rows + c)
			m.Set(r, c, gf256.Inv(gf256.Add(x, y)))
		}
	}
	return m
}

// IsSingular reports whether a square matrix has no inverse, by
// row-reducing a clone without the augmented identity Invert carries.
// Non-square matrices are reported singular.
func (m *Matrix) IsSingular() bool {
	if m.rows != m.cols {
		return true
	}
	w := m.Clone()
	n := w.rows
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if w.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return true
		}
		w.SwapRows(col, pivot)
		pivotRow := w.rowView(col)
		gf256.MulSlice(gf256.Inv(pivotRow[col]), pivotRow, pivotRow)
		for r := 0; r < n; r++ {
			if factor := w.At(r, col); r != col && factor != 0 {
				gf256.MulAddSlice(factor, w.rowView(r), pivotRow)
			}
		}
	}
	return false
}
