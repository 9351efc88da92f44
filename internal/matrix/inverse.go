package matrix

import "trapquorum/internal/gf256"

// Invert returns the inverse of a square matrix using Gauss-Jordan
// elimination over GF(2^8), or ErrSingular if no inverse exists. The
// receiver is not modified.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, ErrSingular
	}
	n := m.rows
	work := m.Augment(Identity(n))
	if err := work.gaussJordan(); err != nil {
		return nil, err
	}
	return work.SubMatrix(0, n, n, 2*n), nil
}

// gaussJordan reduces the left square block of an augmented matrix
// [A | B] to the identity, transforming B into A^-1·B in place.
func (m *Matrix) gaussJordan() error {
	n := m.rows
	for col := 0; col < n; col++ {
		pivot := -1
		for r := col; r < n; r++ {
			if m.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return ErrSingular
		}
		m.SwapRows(col, pivot)
		pivotRow := m.rowView(col)
		inv := gf256.Inv(pivotRow[col])
		gf256.MulSlice(inv, pivotRow, pivotRow)
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			factor := m.At(r, col)
			if factor != 0 {
				gf256.MulAddSlice(factor, m.rowView(r), pivotRow)
			}
		}
	}
	return nil
}
