//go:build race

package localjoin

// raceEnabled reports that the race detector is on: its instrumentation
// adds an allocation per Evaluate, so allocation ceilings do not hold.
const raceEnabled = true
