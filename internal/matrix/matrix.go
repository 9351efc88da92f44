// Package matrix implements dense matrices over the finite field
// GF(2^8), the linear-algebra substrate of the (n,k) MDS erasure code:
// encoding is a matrix-vector product with the generator matrix, and
// decoding inverts the k×k submatrix of surviving rows.
package matrix

import (
	"errors"
	"fmt"
	"strings"

	"trapquorum/internal/gf256"
)

// ErrSingular is returned when a matrix that must be invertible is not.
var ErrSingular = errors.New("matrix: singular")

// Matrix is a dense rows×cols matrix over GF(2^8). The zero value is an
// empty matrix; use New or a generator constructor to build one.
type Matrix struct {
	rows, cols int
	data       []byte // row-major
}

// New returns a zero-filled rows×cols matrix. It panics if either
// dimension is not positive.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// FromRows builds a matrix from explicit row contents. All rows must
// have the same non-zero length.
func FromRows(rows [][]byte) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("matrix: FromRows needs at least one non-empty row")
	}
	m := New(len(rows), len(rows[0]))
	for r, row := range rows {
		if len(row) != m.cols {
			panic(fmt.Sprintf("matrix: row %d has %d columns, want %d", r, len(row), m.cols))
		}
		copy(m.data[r*m.cols:], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) byte {
	m.check(r, c)
	return m.data[r*m.cols+c]
}

// Set assigns the element at row r, column c.
func (m *Matrix) Set(r, c int, v byte) {
	m.check(r, c)
	m.data[r*m.cols+c] = v
}

func (m *Matrix) check(r, c int) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of %dx%d", r, c, m.rows, m.cols))
	}
}

// Row returns a copy of row r.
func (m *Matrix) Row(r int) []byte {
	if r < 0 || r >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of %d", r, m.rows))
	}
	out := make([]byte, m.cols)
	copy(out, m.data[r*m.cols:(r+1)*m.cols])
	return out
}

// rowView returns row r without copying; internal use only.
func (m *Matrix) rowView(r int) []byte {
	return m.data[r*m.cols : (r+1)*m.cols]
}

// RowView returns row r as a view into the matrix, without copying.
// The caller must treat it as read-only: mutating it mutates the
// matrix. The allocation-free companion of Row for hot decode paths.
func (m *Matrix) RowView(r int) []byte {
	if r < 0 || r >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of %d", r, m.rows))
	}
	return m.rowView(r)
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Equal reports whether two matrices have identical shape and contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i := range m.data {
		if m.data[i] != o.data[i] {
			return false
		}
	}
	return true
}

// Mul returns the matrix product m·o. It panics on incompatible shapes.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.cols != o.rows {
		panic(fmt.Sprintf("matrix: cannot multiply %dx%d by %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
	out := New(m.rows, o.cols)
	for r := 0; r < m.rows; r++ {
		mrow := m.rowView(r)
		orow := out.rowView(r)
		for t := 0; t < m.cols; t++ {
			if mrow[t] == 0 {
				continue
			}
			gf256.MulAddSlice(mrow[t], orow, o.rowView(t))
		}
	}
	return out
}

// SelectRows returns a new matrix made of the given rows, in order.
// Rows may repeat. It panics on out-of-range indices.
func (m *Matrix) SelectRows(idx []int) *Matrix {
	if len(idx) == 0 {
		panic("matrix: SelectRows with no rows")
	}
	out := New(len(idx), m.cols)
	for i, r := range idx {
		if r < 0 || r >= m.rows {
			panic(fmt.Sprintf("matrix: row %d out of %d", r, m.rows))
		}
		copy(out.rowView(i), m.rowView(r))
	}
	return out
}

// Augment returns [m | o], the matrices side by side. Row counts must
// match.
func (m *Matrix) Augment(o *Matrix) *Matrix {
	if m.rows != o.rows {
		panic(fmt.Sprintf("matrix: cannot augment %d rows with %d rows", m.rows, o.rows))
	}
	out := New(m.rows, m.cols+o.cols)
	for r := 0; r < m.rows; r++ {
		copy(out.rowView(r), m.rowView(r))
		copy(out.rowView(r)[m.cols:], o.rowView(r))
	}
	return out
}

// SubMatrix returns the rectangle [r0,r1)×[c0,c1) as a new matrix.
func (m *Matrix) SubMatrix(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || c0 < 0 || r1 > m.rows || c1 > m.cols || r0 >= r1 || c0 >= c1 {
		panic(fmt.Sprintf("matrix: bad submatrix [%d:%d,%d:%d] of %dx%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := New(r1-r0, c1-c0)
	for r := r0; r < r1; r++ {
		copy(out.rowView(r-r0), m.rowView(r)[c0:c1])
	}
	return out
}

// SwapRows exchanges rows i and j in place.
func (m *Matrix) SwapRows(i, j int) {
	if i == j {
		return
	}
	ri, rj := m.rowView(i), m.rowView(j)
	for c := range ri {
		ri[c], rj[c] = rj[c], ri[c]
	}
}

// String renders the matrix in hex, one row per line.
func (m *Matrix) String() string {
	var b strings.Builder
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			if c > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%02x", m.At(r, c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
