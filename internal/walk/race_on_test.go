//go:build race

package walk

// raceEnabled reports whether the race detector instruments this build;
// its shadow-memory bookkeeping allocates, so allocation counts are
// meaningless under -race and the tests that gate them skip themselves.
const raceEnabled = true
