//go:build race

package index

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
