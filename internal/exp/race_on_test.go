//go:build race

package exp

// raceEnabled reports a -race build: single-goroutine sweeps shrink to
// their deepest cases there, since the detector slows them ~10x and
// adds nothing to an exactness check.
const raceEnabled = true
