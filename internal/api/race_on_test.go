//go:build race

package api

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
