package erasure

import (
	"fmt"

	"trapquorum/internal/blockpool"
	"trapquorum/internal/gf256"
	"trapquorum/internal/matrix"
)

// mulAdd is a local alias keeping encode/decode call sites short.
func mulAdd(c byte, dst, src []byte) { gf256.MulAddSlice(c, dst, src) }

// decodeMatrix builds (or fetches from the LRU cache) the k×k inverse
// of the generator rows selected by the first k present shards,
// skipping shard index `exclude` (pass -1 to exclude nothing). The
// returned index list names the shards (in order) that the inverse's
// columns multiply; it is owned by the cache and must not be mutated.
// The inverse depends only on the survivor set, so repeated decodes
// under one failure pattern — the common case while a node is down —
// hit the cache without allocating.
func (c *Code) decodeMatrix(shards [][]byte, exclude int) (*matrix.Matrix, []int, error) {
	// Pack the first k present indices straight into a stack buffer:
	// it doubles as the cache key, so the hit path allocates nothing.
	var keyBuf [256]byte
	count := 0
	for i, s := range shards {
		if s == nil || i == exclude {
			continue
		}
		keyBuf[count] = byte(i)
		count++
		if count == c.k {
			break
		}
	}
	if count < c.k {
		return nil, nil, fmt.Errorf("%w: have %d of %d", ErrTooFew, count, c.k)
	}
	key := keyBuf[:c.k]
	c.cacheMu.Lock()
	if e, ok := c.decodeCache.lookup(key); ok {
		c.cacheMu.Unlock()
		return e.inv, e.use, nil
	}
	c.cacheMu.Unlock()
	use := make([]int, c.k)
	for t, b := range key {
		use[t] = int(b)
	}
	sub := c.gen.SelectRows(use)
	inv, err := sub.Invert()
	if err != nil {
		// Cannot happen for an MDS generator; report loudly if it does.
		return nil, nil, fmt.Errorf("erasure: MDS invariant violated for rows %v: %v", use, err)
	}
	e := &decodeEntry{key: string(key), inv: inv, use: use}
	c.cacheMu.Lock()
	c.decodeCache.insert(e)
	c.cacheMu.Unlock()
	return inv, use, nil
}

// DecodeBlock reconstructs original data block i (0 ≤ i < k) from any
// k present shards, without touching the rest of the stripe. This is
// the "Case 2" path of Algorithm 2: the node holding the original
// block is stale or down, and the block is decoded from k up-to-date
// blocks. The input is not modified.
func (c *Code) DecodeBlock(i int, shards [][]byte) ([]byte, error) {
	size, err := c.checkShape(shards)
	if err != nil {
		return nil, err
	}
	out := make([]byte, size)
	if err := c.decodeBlockInto(out, i, shards); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeBlockInto is DecodeBlock's shape-validated body: dst is known
// to match the shard size. On the cached-decode path it performs no
// allocation.
func (c *Code) decodeBlockInto(dst []byte, i int, shards [][]byte) error {
	if i < 0 || i >= c.k {
		return fmt.Errorf("erasure: DecodeBlock index %d out of range [0,%d)", i, c.k)
	}
	// Fast path: the systematic block itself is present.
	if shards[i] != nil {
		copy(dst, shards[i])
		return nil
	}
	inv, use, err := c.decodeMatrix(shards, -1)
	if err != nil {
		return err
	}
	row := inv.RowView(i)
	gf256.MulSlice(row[0], dst, shards[use[0]])
	for t := 1; t < len(use); t++ {
		mulAdd(row[t], dst, shards[use[t]])
	}
	return nil
}

// Reconstruct fills every nil entry of shards (data and parity alike)
// from the k (or more) present shards, in place, allocating the
// missing blocks. Present shards are never modified. It returns
// ErrTooFew when fewer than k shards are available.
func (c *Code) Reconstruct(shards [][]byte) error {
	return c.reconstruct(shards, len(shards), nil)
}

// ReconstructData fills only the missing data blocks (indices < k),
// leaving missing parity blocks nil. Cheaper than Reconstruct when the
// caller only needs the original data.
func (c *Code) ReconstructData(shards [][]byte) error {
	return c.reconstruct(shards, c.k, nil)
}

// ReconstructInto is Reconstruct with caller-provided destinations:
// dst[idx], when non-nil, receives the rebuilt shard idx instead of a
// fresh allocation (it must have exactly the shard size and is fully
// overwritten; shards[idx] is then set to dst[idx]). Missing
// destinations fall back to allocation, so a partial dst is fine.
// With every needed destination supplied the reconstruction runs
// allocation-free over pooled scratch.
func (c *Code) ReconstructInto(shards [][]byte, dst [][]byte) error {
	if dst != nil && len(dst) != len(shards) {
		return fmt.Errorf("%w: got %d destinations, want %d", ErrShardCount, len(dst), len(shards))
	}
	return c.reconstruct(shards, len(shards), dst)
}

// reconstruct fills the nil shards below `limit`, taking fill buffers
// from dst when provided.
func (c *Code) reconstruct(shards [][]byte, limit int, dst [][]byte) error {
	size, err := c.checkShape(shards)
	if err != nil {
		return err
	}
	// Validate every provided destination up front: a bad buffer must
	// fail the call before any shard has been rebuilt, not midway
	// through with shards half-mutated.
	for idx := range dst {
		if dst[idx] != nil && len(dst[idx]) != size {
			return fmt.Errorf("%w: destination %d has %d bytes, expected %d", ErrShardSize, idx, len(dst[idx]), size)
		}
	}
	missing := false
	for idx := 0; idx < limit; idx++ {
		if shards[idx] == nil {
			missing = true
			break
		}
	}
	if !missing {
		return nil
	}
	inv, use, err := c.decodeMatrix(shards, -1)
	if err != nil {
		return err
	}
	claim := func(idx int) []byte {
		if dst != nil && dst[idx] != nil {
			return dst[idx]
		}
		return make([]byte, size)
	}
	// Recover the missing data blocks first (d = G_S^{-1} · s), banked:
	// the packed-lane kernels rebuild up to 8 missing rows per
	// accumulation pass over the k survivors. The index scratch lives
	// on the stack (≤256 shards), keeping the steady state alloc-free.
	var missBuf [256]int
	missData := missBuf[:0:c.k]
	for i := 0; i < c.k; i++ {
		if shards[i] == nil {
			missData = append(missData, i)
		}
	}
	data := blockpool.GetShardList(c.k)
	defer data.Release()
	copy(data.S, shards[:c.k])
	if len(missData) > 0 {
		outs := blockpool.GetShardList(len(missData))
		defer outs.Release()
		rows := blockpool.GetShardList(len(missData))
		defer rows.Release()
		srcs := blockpool.GetShardList(len(use))
		defer srcs.Release()
		for t, shardIdx := range use {
			srcs.S[t] = shards[shardIdx]
		}
		for m, i := range missData {
			outs.S[m] = claim(i)
			rows.S[m] = inv.RowView(i)
		}
		c.rebuildRows(outs.S, rows.S, srcs.S, size)
		for m, i := range missData {
			data.S[i] = outs.S[m]
			if i < limit {
				shards[i] = outs.S[m]
			}
		}
	}
	// Re-encode any missing parity rows from the recovered data, again
	// banked over the generator rows.
	missParity := missBuf[c.k:c.k:256]
	for j := c.k; j < limit; j++ {
		if shards[j] == nil {
			missParity = append(missParity, j)
		}
	}
	if len(missParity) > 0 {
		outs := blockpool.GetShardList(len(missParity))
		defer outs.Release()
		rows := blockpool.GetShardList(len(missParity))
		defer rows.Release()
		for m, j := range missParity {
			outs.S[m] = claim(j)
			rows.S[m] = c.gen.RowView(j)
		}
		c.rebuildRows(outs.S, rows.S, data.S, size)
		for m, j := range missParity {
			shards[j] = outs.S[m]
		}
	}
	return nil
}

// rebuildRows computes dsts[r][m] = Σ_t coeffRows[r][t]·srcs[t][m] for
// every destination row, banking the rows into fan-out passes of up to
// 8 (see rowBank) and walking the blocks in cache-sized segments. A
// single row takes the row-wise kernels over the whole block instead —
// the fan-out has nothing to feed there.
func (c *Code) rebuildRows(dsts [][]byte, coeffRows [][]byte, srcs [][]byte, size int) {
	if len(dsts) == 1 {
		row := coeffRows[0]
		gf256.MulSlice(row[0], dsts[0], srcs[0])
		for t := 1; t < len(srcs); t++ {
			mulAdd(row[t], dsts[0], srcs[t])
		}
		return
	}
	// The banks' coefficient columns are per-call (the survivor set
	// picks them): pooled, so the steady state allocates nothing.
	cols := blockpool.GetShardList(len(srcs))
	defer cols.Release()
	flat := blockpool.GetBlock(len(srcs) * gf256.MaxLanes)
	defer flat.Release()
	for base := 0; base < len(dsts); base += gf256.MaxLanes {
		bankEnd := base + gf256.MaxLanes
		if bankEnd > len(dsts) {
			bankEnd = len(dsts)
		}
		for t := range srcs {
			cols.S[t] = flat.B[t*gf256.MaxLanes : t*gf256.MaxLanes+bankEnd-base]
			for r := base; r < bankEnd; r++ {
				cols.S[t][r-base] = coeffRows[r][t]
			}
		}
		bank, out := newRowBank(cols.S), dsts[base:bankEnd]
		if c.parallelSegments(size) {
			c.forEachSegment(size, func(lo, hi int) { bank.mulSegment(out, srcs, lo, hi) })
			continue
		}
		for lo := 0; lo < size; lo += segmentSize {
			hi := lo + segmentSize
			if hi > size {
				hi = size
			}
			bank.mulSegment(out, srcs, lo, hi)
		}
	}
}

// RepairShard performs the exact repair of a single lost shard: it
// recomputes block j (data or parity) from any k present shards and
// returns the new shard. shards[j] is ignored and may be nil. This is
// the recovery path run when a failed node rejoins.
func (c *Code) RepairShard(j int, shards [][]byte) ([]byte, error) {
	size, err := c.checkShape(shards)
	if err != nil {
		return nil, err
	}
	out := make([]byte, size)
	if err := c.repairShardInto(out, j, shards); err != nil {
		return nil, err
	}
	return out, nil
}

// RepairShardInto is RepairShard with a caller-provided destination:
// dst must have exactly the shard size, must not alias any shard, and
// is fully overwritten. On the cached-decode path it performs no
// allocation.
func (c *Code) RepairShardInto(dst []byte, j int, shards [][]byte) error {
	size, err := c.checkShape(shards)
	if err != nil {
		return err
	}
	if len(dst) != size {
		return fmt.Errorf("%w: destination has %d bytes, expected %d", ErrShardSize, len(dst), size)
	}
	return c.repairShardInto(dst, j, shards)
}

// repairShardInto is the shape-validated body shared by RepairShard
// and RepairShardInto.
func (c *Code) repairShardInto(dst []byte, j int, shards [][]byte) error {
	if j < 0 || j >= c.n {
		return fmt.Errorf("erasure: RepairShard index %d out of range [0,%d)", j, c.n)
	}
	// Select survivors with shard j masked out so it never contributes,
	// even when a (stale) copy is present.
	inv, use, err := c.decodeMatrix(shards, j)
	if err != nil {
		return err
	}
	// coeffs = row j of G · G_S^{-1}: maps the k selected shards
	// directly to shard j without materialising the data blocks.
	genRow := c.gen.RowView(j)
	var coeffBuf [256]byte
	coeffs := coeffBuf[:c.k]
	for t := 0; t < c.k; t++ {
		var acc byte
		for i := 0; i < c.k; i++ {
			acc ^= gf256.Mul(genRow[i], inv.At(i, t))
		}
		coeffs[t] = acc
	}
	gf256.MulSlice(coeffs[0], dst, shards[use[0]])
	for t := 1; t < len(use); t++ {
		mulAdd(coeffs[t], dst, shards[use[t]])
	}
	return nil
}
