//go:build !race

package monitor

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count assertions are skipped under -race: sync.Pool
// intentionally drops puts at random when the detector is on, so pooled
// scratch reallocates and AllocsPerRun over-counts.
const raceEnabled = false
