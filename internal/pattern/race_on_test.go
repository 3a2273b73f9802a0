//go:build race

package pattern

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
