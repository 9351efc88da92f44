//go:build race

package tcp_test

// raceEnabled reports that this binary was built with -race, whose
// instrumentation allocates and would fail the allocation pins for
// reasons unrelated to the transport.
const raceEnabled = true
