// Package experiments regenerates every table and worked example of the
// paper's evaluation, comparing closed-form predictions with loads and
// round counts measured on the MPC engine. Each experiment returns a slice
// of its own row struct; the package tests assert the paper's statements on
// those fields, and cmd/mpcbench prints them (All lists the index, E1–E17,
// in order).
package experiments

// Config controls experiment sizes.
type Config struct {
	Seed  int64
	Quick bool // smaller inputs for CI / tests
}

// scale returns quick when cfg.Quick, full otherwise.
func (c Config) scale(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Experiment is one reproduced artifact: a paper table, example or theorem.
type Experiment struct {
	ID    string // E1..E17 in All's order
	Ref   string // the paper artifact it regenerates
	Title string
	// Run executes the experiment and returns its rows, a slice of the
	// experiment's row struct.
	Run func(Config) any
}

// All returns every experiment in index order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Table 2", "share exponents, τ*, and space-exponent lower bound (equal sizes)", rows(Table2ShareExponents)},
		{"E2", "Table 3", "space exponent for 1 round vs rounds for load O(M/p)", rows(Table3RoundsTradeoff)},
		{"E3", "Example 3.17 / Lemma 3.18", "triangle with unequal sizes: packing crossover at p = M/M1", rows(TriangleUnequalSizes)},
		{"E4", "Corollary 3.19 / Example 3.20", "replication rate vs load for the triangle query", rows(ReplicationRate)},
		{"E5", "Example 4.1 / §4.1 / §4.2.1", "simple join under skew: naive vs oblivious vs skew-aware", rows(SkewedJoin)},
		{"E6", "§4.2.1 upper vs §4.2.3 lower bound", "star query T3 with heavy hitters: algorithm vs lower bound", rows(SkewedStar)},
		{"E7", "§4.2.2 / Theorem 4.4", "triangle with one heavy value: heavy/light patterns", rows(SkewedTriangle)},
		{"E8", "Examples 5.2/5.3, Corollary 5.15", "multi-round chains: rounds and per-round load", rows(ChainMultiRound)},
		{"E9", "Example 5.19 / Lemma 5.18", "cycle queries: round bounds at ε=0", rows(CycleRounds)},
		{"E10", "Theorem 5.20", "connected components: rounds vs p on diameter-p paths", rows(ConnectedComponents)},
		{"E11", "Appendix A (Theorem A.1)", "weighted balls-in-bins: empirical tail vs Chernoff bound", rows(BallsInBins)},
		{"E12", "Theorem 3.15", "L_lower = L_upper over random queries and statistics", rows(LowerEqualsUpper)},
		{"E13", "Theorems 3.5/3.7", "answer fraction under a load cap (the lower bound, observed)", rows(AnswerFraction)},
		{"E14", "Section 3.4 (speedup discussion)", "speedup exponents: log-log slope of measured load vs p", rows(SpeedupCurve)},
		{"E15", "Section 1 (statistics from samples)", "sampled vs oracle heavy-hitter statistics for the skewed join", rows(SampledStats)},
		{"E16", "Section 6 (Cartesian product / drug interactions)", "Cartesian product: the share LP finds the √p×√p grid", rows(CartesianProduct)},
		{"E17", "Section 2.1 / Corollary 3.3 (w.h.p. load)", "abort probability of HyperCube under a declared load cap", rows(AbortProbability)},
	}
}

// rows erases an experiment's row type for All's index.
func rows[R any](run func(Config) []R) func(Config) any {
	return func(cfg Config) any { return run(cfg) }
}
