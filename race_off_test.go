//go:build !race

package mpcquery

const raceEnabled = false
