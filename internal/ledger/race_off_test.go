//go:build !race

package ledger

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = false
