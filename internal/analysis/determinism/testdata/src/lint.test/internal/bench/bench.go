// Package bench is a determinism fixture for the internal/bench path
// suffix: the escalation planner's ranking feeds every Verdict and the
// pthammer-flip tables, so an index built in map order, or a wall-clock
// read, would leak into byte-compared output.
package bench

import "time"

// buildIndex fills a frame bitset by ranging the frame→region map:
// flagged, the walk order (and anything keyed off it) would vary run
// to run — build the bitset during the ordered region walk instead.
func buildIndex(ptOf map[uint64]uint64, bits []uint64) {
	for f := range ptOf { // want `range over map in deterministic package`
		bits[f>>6] |= 1 << (f & 63)
	}
}

// elapsed times the planner from the wall clock: flagged, timings
// come from the simulated clock.
func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want `call to time.Since in deterministic package`
}

// buildOrdered is the deterministic way: one ordered walk over region
// indices sets the bit and records the region together.
func buildOrdered(tables []uint64, bits []uint64, region map[uint64]int) {
	for i, f := range tables {
		bits[f>>6] |= 1 << (f & 63)
		region[f] = i
	}
}
