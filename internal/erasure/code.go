// Package erasure implements the systematic (n,k) MDS erasure code the
// TRAP-ERC protocol stores stripes with (paper §III-A).
//
// A stripe holds n blocks: the k original data blocks b_1..b_k stored
// verbatim, plus n−k parity blocks b_j = Σ_i α_{j,i}·b_i over GF(2^8)
// (equation 1 of the paper). Any k of the n blocks reconstruct the
// original data (the MDS property).
//
// The package also exposes the in-place update primitive of
// Algorithm 1: when block i changes from old to x, each parity node j
// applies b_j ^= α_{j,i}·(x − old), which commutes with concurrent
// updates of other data blocks — the reason Galois-field codes admit
// quorum-style partial writes.
//
// Data-plane layout. The coding kernels run word-wise (gf256's packed
// lane tables: one table lookup per source byte feeds up to 8 parity
// rows), blocks are processed in cache-sized segments that can be
// fanned across a bounded worker set (WithParallelism), and every hot
// operation has a destination-buffer variant (EncodeInto,
// ReconstructInto, RepairShardInto) so steady-state
// traffic runs allocation-free over pooled buffers. See DESIGN.md
// "Buffer ownership" for the aliasing and retention rules.
package erasure

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"trapquorum/internal/blockpool"
	"trapquorum/internal/dispatch"
	"trapquorum/internal/gf256"
	"trapquorum/internal/matrix"
)

// Common parameter and shard-shape errors.
var (
	ErrShardCount  = errors.New("erasure: wrong number of shards")
	ErrShardSize   = errors.New("erasure: shards have inconsistent sizes")
	ErrTooFew      = errors.New("erasure: fewer than k shards present")
	ErrEmptyShards = errors.New("erasure: no shard data present")
)

// decodeCacheLimit bounds the number of cached decode inverses. The
// cache is an LRU: each failure pattern seen in practice is one entry,
// and churn beyond the limit evicts the coldest pattern instead of
// refusing to cache new ones, so long-lived clusters never regress to
// re-inverting matrices for their current failure pattern.
const decodeCacheLimit = 1024

// segmentSize is the number of positions one coding segment covers.
// The packed-lane accumulator for a segment is 8× that in bytes
// (32 KiB), which keeps the accumulator plus the k source segments
// resident in L1/L2 across the k accumulation passes — the cache
// blocking that makes the lane kernels stream at word speed — and is
// also the fan-out grain of the stripe-parallel coder.
const segmentSize = 4096

// Option configures a Code at construction.
type Option func(*Code)

// WithParallelism bounds the worker set the stripe-parallel coder fans
// block segments across. 1 (the default) keeps coding on the calling
// goroutine; p > 1 allows up to p concurrent segment workers for
// blocks large enough to split (≥ 2 segments); 0 resolves to
// runtime.GOMAXPROCS(0). Negative values panic.
func WithParallelism(p int) Option {
	if p < 0 {
		panic(fmt.Sprintf("erasure: WithParallelism(%d): need >= 0", p))
	}
	return func(c *Code) {
		if p == 0 {
			c.parallel = runtime.GOMAXPROCS(0)
			return
		}
		c.parallel = p
	}
}

// Code is a systematic (n,k) MDS erasure code. The generator matrix is
// immutable; a bounded LRU cache of decode-matrix inverses (keyed by
// the survivor set) is maintained behind a lock, so the type is safe
// for concurrent use.
type Code struct {
	n, k     int
	gen      *matrix.Matrix // n×k systematic generator; top k×k = I
	parallel int            // segment-worker bound (≥ 1)

	// encOnce guards the lazily built encode tables: encBanks[b] holds
	// the coefficients of the ≤8 parity rows of bank b (rows k+8b ..
	// min(k+8b+8, n)) over the k data columns, and encRows[j] is parity
	// row j's full coefficient vector for row-wise verification.
	encOnce  sync.Once
	encBanks []rowBank
	encRows  [][]byte

	cacheMu     sync.Mutex
	decodeCache *decodeCache
}

// New constructs an (n,k) code. Requirements: 1 ≤ k ≤ n ≤ 256.
func New(n, k int, opts ...Option) (*Code, error) {
	if k < 1 || n < k || n > 256 {
		return nil, fmt.Errorf("erasure: invalid parameters n=%d k=%d (need 1 <= k <= n <= 256)", n, k)
	}
	gen, err := matrix.Systematic(n, k)
	if err != nil {
		return nil, err
	}
	c := &Code{n: n, k: k, gen: gen, parallel: 1, decodeCache: newDecodeCache(decodeCacheLimit)}
	for _, opt := range opts {
		opt(c)
	}
	return c, nil
}

// N returns the total number of blocks per stripe.
func (c *Code) N() int { return c.n }

// K returns the number of original data blocks per stripe.
func (c *Code) K() int { return c.k }

// ParityCount returns n − k, the number of redundant blocks.
func (c *Code) ParityCount() int { return c.n - c.k }

// Parallelism returns the configured segment-worker bound.
func (c *Code) Parallelism() int { return c.parallel }

// Coefficient returns α_{j,i}: the generator coefficient applied to
// data block i (0-based, 0 ≤ i < k) in the encoding of block j
// (0 ≤ j < n). For j < k this is 1 when j == i and 0 otherwise
// (systematic blocks), matching the paper's indexing where parity rows
// are k+1 ≤ j ≤ n.
func (c *Code) Coefficient(j, i int) byte {
	if j < 0 || j >= c.n || i < 0 || i >= c.k {
		panic(fmt.Sprintf("erasure: Coefficient(%d,%d) out of range for (%d,%d) code", j, i, c.n, c.k))
	}
	return c.gen.At(j, i)
}

// GeneratorRow returns a copy of row j of the generator matrix.
func (c *Code) GeneratorRow(j int) []byte {
	if j < 0 || j >= c.n {
		panic(fmt.Sprintf("erasure: GeneratorRow(%d) out of range", j))
	}
	return c.gen.Row(j)
}

// checkShape validates that shards has exactly n entries, that all
// non-nil entries share one size, and returns that size. At least one
// shard must be present.
func (c *Code) checkShape(shards [][]byte) (int, error) {
	if len(shards) != c.n {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrShardCount, len(shards), c.n)
	}
	size := -1
	for idx, s := range shards {
		if s == nil {
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return 0, fmt.Errorf("%w: shard %d has %d bytes, expected %d", ErrShardSize, idx, len(s), size)
		}
	}
	if size <= 0 {
		return 0, ErrEmptyShards
	}
	return size, nil
}

// DataSize validates that data holds exactly k non-nil, equally sized,
// non-empty blocks — the encode-input contract — and returns the
// common block size. Callers that must size destination buffers before
// calling EncodeInto (the protocol's pooled seeding path) use it so
// validation lives in one place.
func (c *Code) DataSize(data [][]byte) (int, error) { return c.checkData(data) }

// checkData validates the k data blocks of an encode and returns the
// common block size.
func (c *Code) checkData(data [][]byte) (int, error) {
	if len(data) != c.k {
		return 0, fmt.Errorf("%w: got %d data blocks, want %d", ErrShardCount, len(data), c.k)
	}
	size := -1
	for i, d := range data {
		if d == nil {
			return 0, fmt.Errorf("erasure: data block %d is nil", i)
		}
		if size == -1 {
			size = len(d)
		} else if len(d) != size {
			return 0, fmt.Errorf("%w: data block %d has %d bytes, expected %d", ErrShardSize, i, len(d), size)
		}
	}
	if size == 0 {
		return 0, ErrEmptyShards
	}
	return size, nil
}

// rowBank holds the coefficients of up to MaxLanes output rows over a
// common set of sources, in the layout of the build's fan-out kernels:
// cols[t][r] is source t's coefficient in output row r, and on
// portable builds tables[t] is cols[t] packed for the lane kernels.
type rowBank struct {
	cols   [][]byte
	tables []*gf256.LaneTable // nil on SIMD builds
}

// newRowBank wraps the coefficient columns (retained, not copied). This
// is the one place the kernel family for row fan-out is chosen: SIMD
// builds run the vector row kernels straight off cols; portable builds
// pack each column into a LaneTable, whose word-wise accumulation feeds
// all the bank's rows per lookup.
func newRowBank(cols [][]byte) rowBank {
	b := rowBank{cols: cols}
	if !gf256.Accelerated() {
		b.tables = make([]*gf256.LaneTable, len(cols))
		for t, col := range cols {
			b.tables[t] = gf256.NewLaneTable(col)
		}
	}
	return b
}

// mulSegment sets dsts[r][m] = Σ_t cols[t][r]·srcs[t][m] over positions
// [lo,hi) for every row of the bank, overwriting the destinations.
//
// The row kernels make one vector Mul/MulAdd pass per source — the
// source's segment stays hot across the bank's rows, and no lane
// transpose is needed. The lane kernels make one accumulation pass (one
// lookup per source position feeding all the bank's rows at once) into
// pooled scratch, then a word-wise lane extraction into each row.
func (b rowBank) mulSegment(dsts, srcs [][]byte, lo, hi int) {
	var seg [gf256.MaxLanes][]byte
	for r, d := range dsts {
		seg[r] = d[lo:hi]
	}
	rows := seg[:len(dsts)]
	if b.tables == nil {
		gf256.MulRows(b.cols[0], rows, srcs[0][lo:hi])
		for t := 1; t < len(b.cols); t++ {
			gf256.MulAddRows(b.cols[t], rows, srcs[t][lo:hi])
		}
		return
	}
	acc := blockpool.GetWords(hi - lo)
	b.tables[0].Mul(acc.W, srcs[0][lo:hi])
	for t := 1; t < len(b.tables); t++ {
		b.tables[t].MulAdd(acc.W, srcs[t][lo:hi])
	}
	gf256.ExtractLanes(rows, acc.W)
	acc.Release()
}

// encTables returns the lazily built encode banks, one per ≤8 parity
// rows. Built once per Code; safe for concurrent use.
func (c *Code) encTables() []rowBank {
	c.encOnce.Do(func() {
		parity := c.n - c.k
		nbanks := (parity + gf256.MaxLanes - 1) / gf256.MaxLanes
		banks := make([]rowBank, nbanks)
		for b := range banks {
			rows := gf256.MaxLanes
			if rem := parity - b*gf256.MaxLanes; rem < rows {
				rows = rem
			}
			cols := make([][]byte, c.k)
			for i := range cols {
				cols[i] = make([]byte, rows)
				for r := range cols[i] {
					cols[i][r] = c.gen.At(c.k+b*gf256.MaxLanes+r, i)
				}
			}
			banks[b] = newRowBank(cols)
		}
		c.encBanks = banks
		rows := make([][]byte, parity)
		for j := range rows {
			rows[j] = c.gen.Row(c.k + j)
		}
		c.encRows = rows
	})
	return c.encBanks
}

// parallelSegments reports whether a block of the given size gets its
// segments fanned across workers (rather than walked serially on the
// calling goroutine).
func (c *Code) parallelSegments(size int) bool {
	return c.parallel > 1 && size > segmentSize
}

// forEachSegment fans f over the segment ranges [lo,hi) covering
// [0,size) with at most `parallel` workers. Callers on the serial path
// walk the segments inline instead — a closure-free loop — so the
// steady state allocates nothing; this helper is the parallel arm.
func (c *Code) forEachSegment(size int, f func(lo, hi int)) {
	nseg := (size + segmentSize - 1) / segmentSize
	// Coding segments are pure CPU work that always runs to completion,
	// so the fan-out gets a never-cancelled context.
	dispatch.Fanout(context.Background(), c.parallel, nseg, func(_ context.Context, seg int) (struct{}, error) {
		lo := seg * segmentSize
		hi := lo + segmentSize
		if hi > size {
			hi = size
		}
		f(lo, hi)
		return struct{}{}, nil
	}, func(int, struct{}, error) bool { return true })
}

// encodeSegment computes every parity row over positions [lo,hi), bank
// by bank, so the data segment stays hot across all the parity rows.
func (c *Code) encodeSegment(parity [][]byte, data [][]byte, lo, hi int) {
	for b, bank := range c.encTables() {
		base := b * gf256.MaxLanes
		bank.mulSegment(parity[base:base+len(bank.cols[0])], data, lo, hi)
	}
}

// EncodeInto computes the n−k parity blocks of the stripe into the
// caller-provided destination blocks: parity[j] receives stripe block
// k+j. Every destination must be non-nil with exactly the data block
// size and must not alias any data block. The destinations are fully
// overwritten, so pooled buffers need no clearing. EncodeInto performs
// no allocation beyond pooled scratch.
func (c *Code) EncodeInto(parity [][]byte, data [][]byte) error {
	size, err := c.checkData(data)
	if err != nil {
		return err
	}
	if len(parity) != c.n-c.k {
		return fmt.Errorf("%w: got %d parity blocks, want %d", ErrShardCount, len(parity), c.n-c.k)
	}
	for j, p := range parity {
		if p == nil {
			return fmt.Errorf("erasure: parity destination %d is nil", j)
		}
		if len(p) != size {
			return fmt.Errorf("%w: parity destination %d has %d bytes, expected %d", ErrShardSize, j, len(p), size)
		}
	}
	if c.parallelSegments(size) {
		c.forEachSegment(size, func(lo, hi int) {
			c.encodeSegment(parity, data, lo, hi)
		})
		return nil
	}
	for lo := 0; lo < size; lo += segmentSize {
		hi := lo + segmentSize
		if hi > size {
			hi = size
		}
		c.encodeSegment(parity, data, lo, hi)
	}
	return nil
}

// Encode computes the n−k parity blocks for the given k data blocks
// and returns the full stripe of n shards. The returned slice aliases
// the input data blocks (they are stored verbatim — the code is
// systematic) and owns freshly allocated parity blocks. All data
// blocks must be non-nil and the same size.
func (c *Code) Encode(data [][]byte) ([][]byte, error) {
	size, err := c.checkData(data)
	if err != nil {
		return nil, err
	}
	shards := make([][]byte, c.n)
	copy(shards, data)
	for j := c.k; j < c.n; j++ {
		shards[j] = make([]byte, size)
	}
	if err := c.EncodeInto(shards[c.k:], data); err != nil {
		return nil, err
	}
	return shards, nil
}

// Verify checks that the parity blocks are consistent with the data
// blocks. All n shards must be present (non-nil); use Reconstruct
// first if some are missing. Verification re-derives the parity
// word-wise per segment and compares lanes in place, allocating
// nothing beyond pooled scratch.
func (c *Code) Verify(shards [][]byte) (bool, error) {
	size, err := c.checkShape(shards)
	if err != nil {
		return false, err
	}
	for _, s := range shards {
		if s == nil {
			return false, errors.New("erasure: Verify requires all shards present")
		}
	}
	banks := c.encTables()
	data := shards[:c.k]
	ok := true
	// Serial segment walk: verification short-circuits on the first
	// mismatch, which a parallel fan-out would give up.
	for lo := 0; lo < size && ok; lo += segmentSize {
		hi := lo + segmentSize
		if hi > size {
			hi = size
		}
		if gf256.Accelerated() {
			// SIMD row fan-out: re-derive each parity row into pooled
			// scratch and compare, short-circuiting on the first bad row.
			scratch := blockpool.GetBlock(hi - lo)
			for j, row := range c.encRows {
				gf256.MulSlice(row[0], scratch.B, data[0][lo:hi])
				for i := 1; i < len(row); i++ {
					gf256.MulAddSlice(row[i], scratch.B, data[i][lo:hi])
				}
				if !bytes.Equal(scratch.B, shards[c.k+j][lo:hi]) {
					ok = false
					break
				}
			}
			scratch.Release()
			continue
		}
		acc := blockpool.GetWords(hi - lo)
		var wants [gf256.MaxLanes][]byte
		for b, bank := range banks {
			tables := bank.tables
			tables[0].Mul(acc.W, data[0][lo:hi])
			for i := 1; i < len(tables); i++ {
				tables[i].MulAdd(acc.W, data[i][lo:hi])
			}
			base := c.k + b*gf256.MaxLanes
			lanes := tables[0].Lanes()
			for lane := 0; lane < lanes; lane++ {
				wants[lane] = shards[base+lane][lo:hi]
			}
			if !gf256.LanesEqual(wants[:lanes], acc.W) {
				ok = false
				break
			}
		}
		acc.Release()
	}
	return ok, nil
}
