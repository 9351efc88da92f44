package erasure

import (
	"fmt"

	"trapquorum/internal/gf256"
)

// DataDeltaInto computes newData − oldData (elementwise XOR in
// GF(2^8)), the quantity (x − chunk) of Algorithm 1 line 27, into dst,
// overwriting it.
// All three slices must have equal length; dst may alias newData (the
// in-place delta of a buffer being replaced) but not oldData.
func DataDeltaInto(dst, oldData, newData []byte) {
	if len(oldData) != len(newData) || len(dst) != len(newData) {
		panic(fmt.Sprintf("erasure: DataDeltaInto length mismatch %d/%d/%d", len(dst), len(oldData), len(newData)))
	}
	copy(dst, newData)
	gf256.XorSlice(dst, oldData)
}

// ParityAdjustment returns α_{j,i}·delta: the buffer a parity node j
// adds to its block when data block i changed by delta. j must index a
// parity row (k ≤ j < n).
func (c *Code) ParityAdjustment(j, i int, delta []byte) []byte {
	out := make([]byte, len(delta))
	c.ParityAdjustmentInto(out, j, i, delta)
	return out
}

// ParityAdjustmentInto computes α_{j,i}·delta into dst, overwriting
// it; dst must have the delta's length and may alias delta. The
// allocation-free write-path primitive over pooled buffers.
func (c *Code) ParityAdjustmentInto(dst []byte, j, i int, delta []byte) {
	if j < c.k || j >= c.n {
		panic(fmt.Sprintf("erasure: ParityAdjustment row %d is not a parity row of (%d,%d)", j, c.n, c.k))
	}
	gf256.MulSlice(c.Coefficient(j, i), dst, delta)
}

// ApplyAdjustment performs the node-side operation of Algorithm 1
// line 28 — b_j ← b_j + buf — in place on block.
func ApplyAdjustment(block, adjustment []byte) {
	if len(block) != len(adjustment) {
		panic(fmt.Sprintf("erasure: ApplyAdjustment length mismatch %d vs %d", len(block), len(adjustment)))
	}
	gf256.XorSlice(block, adjustment)
}
