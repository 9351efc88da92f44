package core

import (
	"sync"

	"trapquorum/internal/blockpool"
)

// blockCacheBytes caps the pooled bytes one System's block cache
// holds. It covers the mix workloads' whole data set (256 objects of
// 96 KiB) with room to spare; past it, an arbitrary entry is evicted,
// and its block's next write pays Algorithm 1's line-15 read.
const blockCacheBytes = 32 << 20

// seedCacheMax is the largest block SeedStripe enters in the cache.
// A round saved matters most where a write is latency-bound, on small
// blocks; a bulk stream of large blocks, seeded once and seldom
// patched, would only wash the cache out and hold its cap resident.
// A write of a larger block still enters it.
const seedCacheMax = 16 << 10

// cachedBlock is what the coordinator last committed for one block:
// the version it wrote and the bytes it wrote at that version.
type cachedBlock struct {
	version uint64
	blk     *blockpool.Block
}

// blockCache is the coordinator's record of its own writes, keyed by
// (stripe id, block) and byte-capped. Only SeedStripe and a successful
// writeBlock fill it; a writer takes its block's entry out for the
// length of the write, so an eviction never releases bytes a write is
// using. Every other path that changes chunks drops the stripe's
// entries (DESIGN.md §2.5). A nil cache holds nothing, which is how
// DisableRollback turns it off.
//
// The entries live in the map by value, with no recency list beside
// it: dropping a deleted object's blocks touches one map slot and one
// block each, and a cache that holds its working set evicts nothing.
type blockCache struct {
	mu      sync.Mutex
	entries map[blockKey]cachedBlock
	bytes   int
}

func newBlockCache() *blockCache {
	return &blockCache{entries: make(map[blockKey]cachedBlock)}
}

// take removes and returns key's entry; the caller owns its block.
func (c *blockCache) take(key blockKey) (cachedBlock, bool) {
	if c == nil {
		return cachedBlock{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	cb, ok := c.entries[key]
	if ok {
		c.remove(key, cb)
	}
	return cb, ok
}

// put records that version of key holds the bytes of blk, taking
// ownership of blk, and evicts arbitrary entries past the cap.
func (c *blockCache) put(key blockKey, version uint64, blk *blockpool.Block) {
	if c == nil {
		blk.Release()
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		c.remove(key, old)
		old.blk.Release()
	}
	c.entries[key] = cachedBlock{version: version, blk: blk}
	if c.bytes += cap(blk.B); c.bytes <= blockCacheBytes {
		return
	}
	for k, cb := range c.entries {
		c.remove(k, cb)
		cb.blk.Release()
		if c.bytes <= blockCacheBytes {
			return
		}
	}
}

// remove takes an entry out of the map and the byte count. Caller
// holds c.mu.
func (c *blockCache) remove(key blockKey, cb cachedBlock) {
	delete(c.entries, key)
	c.bytes -= cap(cb.blk.B)
}

// dropStripe releases every entry of one stripe of a k-block code.
func (c *blockCache) dropStripe(stripe uint64, k int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for b := 0; b < k; b++ {
		key := blockKey{stripe, b}
		if cb, ok := c.entries[key]; ok {
			c.remove(key, cb)
			cb.blk.Release()
		}
	}
}

// resident returns the pooled bytes the cache holds.
func (c *blockCache) resident() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
