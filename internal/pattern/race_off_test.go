//go:build !race

package pattern

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count assertions are skipped under -race: the detector's
// instrumentation allocates, so AllocsPerRun over-counts.
const raceEnabled = false
