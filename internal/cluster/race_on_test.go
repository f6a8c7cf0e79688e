//go:build race

package cluster

// raceEnabled reports a -race build, whose detector slows a
// single-goroutine loop about tenfold.
const raceEnabled = true
