//go:build race

package wire

// raceEnabled reports whether the race detector is active; the
// allocation-regression tests skip under it because instrumentation
// inserts allocations the production build does not make.
const raceEnabled = true
