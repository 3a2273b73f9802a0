//go:build !race

package index

// raceEnabled reports whether the race detector instruments this build.
// Allocation assertions are skipped under -race: the detector's
// instrumentation allocates, so the counts over-read.
const raceEnabled = false
