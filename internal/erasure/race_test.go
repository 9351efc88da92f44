//go:build race

package erasure

// raceEnabled reports that this binary was built with -race, under
// which sync.Pool deliberately drops a share of the items put back: a
// path that takes several pooled buffers cannot be pinned at zero
// allocations.
const raceEnabled = true
