// Package mpcquery is a Go implementation of the algorithms and bounds of
// Beame, Koutris and Suciu, "Communication Cost in Parallel Query
// Processing": the Massively Parallel Communication (MPC) model, the
// one-round HyperCube algorithm with LP-optimal shares, one skew-aware
// heavy/light-pattern planner for star, triangle and other connected
// queries, multi-round query plans, and
// the accompanying load and round lower bounds.
//
// The package is a façade over the internal packages; it exposes everything
// a downstream user needs:
//
//   - conjunctive queries: Chain, Cycle, Star, Triangle, SpokedWheel,
//     ParseQuery, DesugarSelfJoins, and the hypergraph machinery on Query;
//   - workloads: MatchingDatabase, the skewed generators and
//     ReadRelationCSV;
//   - algorithms: the single entry point Run with a Strategy per paper
//     algorithm — HyperCube variants (one round), SkewedGeneric (one round
//     with heavy-hitter statistics; SkewedTriangle is SkewedGeneric checked
//     for C3, SkewedStarSampled runs it on a star's sampled statistics),
//     ChainPlan / GreedyPlan
//     (multi-round), and Auto (the advisor-driven pick) — all returning
//     the unified Report; plus the connected-components algorithms;
//   - bounds: TauStar, LoadLowerBound, SpaceExponentLB, the round-count
//     bounds (ChainRounds, RoundsUB, RoundBounds) and StarSkewLB;
//   - planning: Advise enumerates the rounds/load tradeoff of Table 3;
//   - serving: NewService wraps Run in a long-lived, concurrency-safe query
//     service with one cache of plans and statistics (keyed by
//     Query.ShapeKey and a database fingerprint), admission control
//     (ErrOverloaded), and aggregate metrics — see Service and
//     cmd/mpcload;
//   - aggregation: WithAggregate computes COUNT/SUM/MIN/MAX over a join
//     with group-by, under every strategy
//     above, with pre-shuffle partial
//     aggregation (senders combine same-group tuples before routing —
//     WithAggregatePushdown, Report.AggregateBitsSaved).
//
// cmd/mpcbench prints the paper's tables, E1–E17, as rows of measured and
// predicted values; the internal/experiments tests assert the paper's
// statements on the same rows.
//
// Quick start:
//
//	q := mpcquery.Triangle()
//	db := mpcquery.MatchingDatabase(rand.New(rand.NewSource(1)), q, 10000, 1<<20)
//	rep, err := mpcquery.Run(q, db, mpcquery.WithServers(64), mpcquery.WithSeed(42))
//	if err != nil { ... }
//	fmt.Println(rep.MaxLoadBits) // ≈ M/p^{2/3}
package mpcquery

import (
	"io"
	"math/rand"

	"mpcquery/internal/advisor"
	"mpcquery/internal/bounds"
	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/multiround"
	"mpcquery/internal/packing"
	"mpcquery/internal/query"
)

// ---- queries ---------------------------------------------------------------

// Query is a full conjunctive query without self-joins (Section 2.2).
type Query = query.Query

// Atom is one relational atom of a query.
type Atom = query.Atom

// ParseQuery reads datalog-like notation, e.g. "q(x,y,z) :- R(x,y), S(y,z)".
func ParseQuery(s string) (*Query, error) { return query.Parse(s) }

// Chain returns L_k, the chain query S1(x0,x1),…,Sk(x_{k−1},x_k).
func Chain(k int) *Query { return query.Chain(k) }

// Cycle returns C_k, the cycle query; Cycle(3) is the triangle.
func Cycle(k int) *Query { return query.Cycle(k) }

// Triangle returns C3 = S1(x1,x2), S2(x2,x3), S3(x3,x1).
func Triangle() *Query { return query.Triangle() }

// Star returns T_k = S1(z,x1),…,Sk(z,xk); Star(2) is the simple join.
func Star(k int) *Query { return query.Star(k) }

// SpokedWheel returns SP_k = ∧ R_i(z,x_i), S_i(x_i,y_i) (Example 5.3).
func SpokedWheel(k int) *Query { return query.SpokedWheel(k) }

// ---- data ------------------------------------------------------------------

// Relation is a bag of fixed-arity tuples over int64 values.
type Relation = data.Relation

// Database is a set of named relations over a common domain [n].
type Database = data.Database

// Graph is an undirected graph given by an edge relation.
type Graph = data.Graph

// NewDatabase returns an empty database with domain size n.
func NewDatabase(n int64) *Database { return data.NewDatabase(n) }

// NewRelation returns an empty relation with the given name and arity.
func NewRelation(name string, arity int) *Relation { return data.NewRelation(name, arity) }

// MatchingDatabase generates one random matching per atom of q (m tuples
// each, domain [0,n)) — the paper's skew-free probability space.
func MatchingDatabase(rng *rand.Rand, q *Query, m int, n int64) *Database {
	return data.MatchingDatabase(rng, q, m, n)
}

// ChainMatchingDatabase generates composing matchings for L_k, so the full
// chain join has exactly m answers.
func ChainMatchingDatabase(rng *rand.Rand, k, m int, n int64) *Database {
	return data.ChainMatchingDatabase(rng, k, m, n)
}

// SkewedStarDatabase generates star-query data with planted heavy hitters
// on z (value → frequency).
func SkewedStarDatabase(rng *rand.Rand, k, m int, n int64, heavy map[int64]int) *Database {
	return data.SkewedStarDatabase(rng, k, m, n, heavy)
}

// SkewedTriangleDatabase plants one heavy x1 value in S1 and S3 of C3.
func SkewedTriangleDatabase(rng *rand.Rand, m int, n int64, heavyVal int64, heavyCount int) *Database {
	return data.SkewedTriangleDatabase(rng, m, n, heavyVal, heavyCount)
}

// LayeredPathGraph builds the Theorem 5.20 hard instance for connected
// components: perLayer disjoint paths of length k.
func LayeredPathGraph(rng *rand.Rand, k, perLayer int) *Graph {
	return data.LayeredPathGraph(rng, k, perLayer)
}

// ---- ground truth -------------------------------------------------------------

// SequentialAnswer computes q(db) on one node (ground truth).
func SequentialAnswer(q *Query, db *Database) *Relation {
	return core.SequentialAnswer(q, db)
}

// ---- multi-round ----------------------------------------------------------

// MultiRoundPlan is a tree of one-round subqueries (Section 5.1).
type MultiRoundPlan = multiround.Plan

// CCResult reports a connected-components computation.
type CCResult = multiround.CCResult

// PlanGreedy builds a plan for any connected query at space exponent ε, for
// plan inspection; Run with WithStrategy(GreedyPlan(eps)) builds and executes
// in one call.
func PlanGreedy(q *Query, eps float64) *MultiRoundPlan { return multiround.GreedyPlan(q, eps) }

// ConnectedComponentsLabelProp runs min-label propagation (Θ(diameter)
// rounds).
func ConnectedComponentsLabelProp(g *Graph, p int, seed int64) *CCResult {
	return multiround.LabelPropagation(g, p, seed, 0)
}

// ConnectedComponentsPointerJump runs min-pointer doubling (O(log diameter)
// iterations on paths).
func ConnectedComponentsPointerJump(g *Graph, p int, seed int64) *CCResult {
	return multiround.PointerJumping(g, p, seed, 0)
}

// ---- bounds ----------------------------------------------------------------

// TauStar returns the fractional vertex covering number τ*(q) with an
// optimal fractional edge packing.
func TauStar(q *Query) (float64, []float64) { return packing.TauStar(q) }

// LoadLowerBound returns L_lower = max_u L(u,M,p) (Theorem 3.5) and the
// maximizing packing; M is per-atom sizes in bits.
func LoadLowerBound(q *Query, M []float64, p float64) (float64, []float64) {
	return packing.LLower(q, M, p)
}

// SpaceExponentLB returns 1 − 1/τ*(q) (Section 3.4).
func SpaceExponentLB(q *Query) float64 { return bounds.SpaceExponentLB(q) }

// ChainRounds returns the optimal round count ⌈log_kε k⌉ for L_k.
func ChainRounds(k int, eps float64) int { return bounds.ChainRounds(k, eps) }

// RoundsUB returns the Lemma 5.4 upper bound on rounds for any connected
// query at space exponent ε.
func RoundsUB(q *Query, eps float64) int { return bounds.RoundsUB(q, eps) }

// StarSkewLB evaluates the heavy-hitter lower bound (20) for star queries;
// freq[j] maps z-values to M_j(h) in bits.
func StarSkewLB(freq []map[int64]float64, p float64) float64 {
	return bounds.StarSkewLB(freq, p)
}

// ---- input and statistics ----------------------------------------------------

// ReadRelationCSV reads a relation from comma-separated integer rows.
func ReadRelationCSV(r io.Reader, name string, arity int) (*Relation, error) {
	return data.ReadCSV(r, name, arity)
}

// ColumnFrequencies returns the frequency of every value in one column of a
// relation (m_j(h) of Section 4.2, as counts).
func ColumnFrequencies(rel *Relation, col int) map[int64]int {
	return data.ColumnFrequencies(rel, col)
}

// FrequenciesBits converts count frequencies to the paper's bit measure
// M_j(h) = a_j · m_j(h) · ⌈log₂ n⌉ — the input StarSkewLB expects.
func FrequenciesBits(freq map[int64]int, arity int, n int64) map[int64]float64 {
	return data.FrequenciesBits(freq, arity, n)
}

// ---- planning ------------------------------------------------------------

// AdviceOption is one executable strategy with predicted rounds and load.
type AdviceOption = advisor.Option

// Advise enumerates executable strategies for a connected query (one-round
// HyperCube variants and multi-round plans over an ε grid), sorted by round
// count — the Table 3 tradeoff as a planning service.
func Advise(q *Query, M []float64, p int) []AdviceOption {
	return advisor.Advise(q, M, p)
}

// RoundBounds summarizes what the paper's theory says about q at space
// exponent eps: the Lemma 5.4 upper bound and, for tree-like queries, the
// matching lower bound.
func RoundBounds(q *Query, eps float64) (ub, lb int) {
	return advisor.RoundBounds(q, eps)
}

// DesugarSelfJoins renames repeated relation occurrences apart, returning a
// self-join-free query plus the new-name → original-name mapping
// (footnote 2 of the paper).
func DesugarSelfJoins(name string, atoms []Atom) (*Query, map[string]string) {
	return core.DesugarSelfJoins(name, atoms)
}
