//go:build !race

package tcp_test

const raceEnabled = false
