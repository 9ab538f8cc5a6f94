//go:build race

package pqueue

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
