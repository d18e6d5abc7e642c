//go:build race

package mpcquery

// raceEnabled reports that the race detector is on: sync.Pool then drops a
// share of what is put back, so allocation ceilings do not hold.
const raceEnabled = true
