//go:build !race

package localjoin

const raceEnabled = false
