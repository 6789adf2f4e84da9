//go:build race

package model

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// share of its Puts on purpose, so allocation counts say nothing.
const raceEnabled = true
