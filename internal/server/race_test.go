//go:build race

package server

// raceEnabled reports a -race build. Under the race detector sync.Pool
// drops items at random, so allocation counts are not repeatable.
const raceEnabled = true
