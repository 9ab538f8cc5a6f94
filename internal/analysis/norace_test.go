//go:build !race

package analysis_test

// raceEnabled reports whether the tests run under the race detector,
// whose instrumentation allocates on its own.
const raceEnabled = false
