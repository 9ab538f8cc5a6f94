//go:build !race

package campaign

// raceEnabled reports whether the tests run under the race detector,
// whose sync.Pool drops a random quarter of what is put back.
const raceEnabled = false
