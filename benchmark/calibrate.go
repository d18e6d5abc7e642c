package main

import "time"

// calibrationNominalMS is the wall time of one calibration sample on the
// reference machine: the sandbox this benchmark was written on, when quiet.
// Only ratios of timings matter to anyone comparing two commits, so the
// constant merely keeps the scaled timings close to real milliseconds.
const calibrationNominalMS = 10.0

// setupCalibrations is the number of calibration samples before each set-up.
const setupCalibrations = 5

// calibrator measures how fast the machine's memory system is right now with
// a kernel that never allocates, makes no system call and does the same work
// every time: a data-dependent walk over a fixed 8 MB table. On a shared host
// the engine's timings drift with it by tens of percent over minutes while a
// register-only loop stays within one percent (see README, Steadiness), so the
// measured phase scales its timings by nominal ÷ measured. The traced phase
// reports wall-clock readings.
type calibrator struct {
	table []uint64
}

func newCalibrator() *calibrator {
	return &calibrator{table: make([]uint64, 1<<20)}
}

var calibrationSink uint64

// sample runs the kernel once and returns its wall time in ms.
func (c *calibrator) sample() float64 {
	t0 := time.Now()
	var s uint64
	n := len(c.table)
	for i := range c.table {
		c.table[i] += s
		s += c.table[(i*7919)%n]
	}
	calibrationSink += s
	return ms(time.Since(t0))
}

// speedScale is the factor that turns a wall time, measured while the
// calibration samples were taken, into the time the same work takes at the
// reference speed.
func speedScale(samples []float64) float64 {
	return calibrationNominalMS / median(samples)
}
