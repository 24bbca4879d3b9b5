//go:build !race

package config

// raceEnabled reports a -race build, where the bench-scale loop of
// TestLineageMemoBounded runs about ten times slower.
const raceEnabled = false
