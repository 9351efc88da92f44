//go:build race

package blockpool

// raceEnabled reports that this binary was built with -race, under
// which sync.Pool deliberately drops a share of the items put back, so
// the steady-state allocation pin cannot hold.
const raceEnabled = true
