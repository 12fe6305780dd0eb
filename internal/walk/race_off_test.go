//go:build !race

package walk

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
