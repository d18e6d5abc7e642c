package mpcquery

import (
	"fmt"
	"math"
	"strings"

	"mpcquery/internal/data"
)

// RoundStat is the communication cost of one MPC round.
type RoundStat struct {
	Round       int     // 1-based round number
	MaxLoadBits float64 // L_r: max bits received by any server in this round
}

// Report is the unified result of executing any Strategy through Run. It
// carries the paper's two cost dimensions — rounds and maximum load — plus
// the bookkeeping needed to compare strategies side by side (the Table 3
// tradeoff): total communication, replication rate, and the strategy's own
// load prediction next to the observed value.
//
// Fields that a strategy cannot report stay at their zero value
// (e.g. Shares is nil for multi-round plans, HeavyHitters is 0 for
// skew-free HyperCube).
type Report struct {
	Strategy string    // name of the executed strategy
	Query    *Query    // the query that was evaluated
	Output   *Relation // full query result (union over servers)

	Rounds     int         // communication rounds used
	RoundStats []RoundStat // per-round loads, when the strategy meters them

	ServersUsed int     // servers actually touched (may exceed requested p for skew-aware runs)
	MaxLoadBits float64 // L: max bits received by any server in any round
	TotalBits   float64 // total bits communicated over all rounds
	InputBits   float64 // Σ_j M_j, the input size in bits

	// ReplicationRate is TotalBits / InputBits — the paper's r.
	ReplicationRate float64

	// PredictedLoadBits is the strategy's own a-priori load prediction
	// (LP value or M/p^{1−ε}); 0 when the strategy makes no prediction.
	PredictedLoadBits float64

	Shares       []int // per-variable integer HyperCube shares, when one grid was used
	HeavyHitters int   // heavy hitters handled by a skew-aware strategy
	Aborted      bool  // a declared load cap (WithLoadCap) was exceeded

	// Aggregate describes the aggregate computed over the join output
	// ("count() by z"); empty for plain join runs. Output then holds the
	// sorted (group key..., value) relation instead of join tuples.
	Aggregate string
	// AggregateBitsSaved is the communication removed by pre-shuffle
	// partial aggregation (WithAggregatePushdown): the bits the raw
	// join-output rows would have cost minus the bits the folded partial
	// aggregates actually cost. 0 for plain runs and no-pushdown runs.
	AggregateBitsSaved float64

	// PeakBufferedBytes is the run's engine-buffer high-water across all
	// clusters and rounds: the most bytes simultaneously resident in
	// emitter batches and inbox arenas at any round boundary (sampled
	// deterministically, once per round, independent of goroutine
	// scheduling). A barrier round holds every tuple staged once by its
	// sender and landed once per target — a tuple replicated to a subcube
	// is held once on each side, however many servers are charged for it.
	// It is the number streaming mode exists to shrink —
	// compare a WithStreaming run against a barrier run of the same
	// workload. A wall-clock-free memory diagnostic, deliberately excluded
	// from Fingerprint like the timing fields above. Under WithRuntime it is
	// the rank's own: the emitters and inboxes of the servers it owns.
	PeakBufferedBytes int64

	// Recovered counts the abandoned attempts a WithRecovery run replayed
	// past before this (successful) one: 0 for an undisturbed run. The
	// replayed run is bit-identical to an undisturbed one, so Recovered is
	// operational metadata, deliberately excluded from Fingerprint.
	Recovered int
	// Degraded is set by the service tier when a tripped circuit breaker
	// answered this request from the in-process runtime instead of the
	// (failing) distributed one. The answer is identical — the in-process
	// path is the reference semantics — so Degraded is likewise excluded
	// from Fingerprint.
	Degraded bool
}

// LoadRatio returns observed/predicted load, or 0 when there is no
// prediction — the "how tight is the theory" number the paper's tables
// report.
func (r *Report) LoadRatio() float64 {
	if r.PredictedLoadBits <= 0 {
		return 0
	}
	return r.MaxLoadBits / r.PredictedLoadBits
}

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy : %s\n", r.Strategy)
	if r.Query != nil {
		fmt.Fprintf(&b, "query    : %s\n", r.Query)
	}
	fmt.Fprintf(&b, "servers  : %d\n", r.ServersUsed)
	fmt.Fprintf(&b, "rounds   : %d\n", r.Rounds)
	fmt.Fprintf(&b, "max load : %.0f bits", r.MaxLoadBits)
	if r.PredictedLoadBits > 0 {
		fmt.Fprintf(&b, " (predicted %.0f, ratio %.2f)", r.PredictedLoadBits, r.LoadRatio())
	}
	b.WriteByte('\n')
	if len(r.RoundStats) > 1 { // one round would just repeat the max-load line
		for _, rs := range r.RoundStats {
			fmt.Fprintf(&b, "  round %d: %.0f bits\n", rs.Round, rs.MaxLoadBits)
		}
	}
	fmt.Fprintf(&b, "total    : %.0f bits, replication %.2f\n", r.TotalBits, r.ReplicationRate)
	if r.Aggregate != "" {
		fmt.Fprintf(&b, "aggregate: %s, pushdown saved %.0f bits\n", r.Aggregate, r.AggregateBitsSaved)
	}
	if r.Shares != nil {
		fmt.Fprintf(&b, "shares   : %v\n", r.Shares)
	}
	if r.HeavyHitters > 0 {
		fmt.Fprintf(&b, "heavy    : %d hitters\n", r.HeavyHitters)
	}
	if r.Aborted {
		b.WriteString("ABORTED  : load cap exceeded\n")
	}
	if r.Output != nil {
		fmt.Fprintf(&b, "output   : %d tuples\n", r.Output.NumTuples())
	}
	return b.String()
}

// Fingerprint returns a canonical digest of everything the Report asserts
// about a run: the executed strategy, rounds, per-round and aggregate bit
// accounting (floats rendered exactly, as hex bit patterns — no formatting
// rounding), shares, heavy-hitter count, abort flag, and an order-sensitive
// hash of the output tuples. Two runs with equal Fingerprints produced the
// same answer with the same communication cost.
//
// This is the equality the service's caching contract is stated in: a
// cached-plan or cached-statistics run must fingerprint identically to the
// uncached run, and the seeded-determinism tests use it to assert that
// concurrent same-seed runs are byte-identical. The output relation's Name
// is excluded (it is presentation, not result).
func (r *Report) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy=%s|rounds=%d|servers=%d", r.Strategy, r.Rounds, r.ServersUsed)
	for _, rs := range r.RoundStats {
		fmt.Fprintf(&b, "|r%d=%x", rs.Round, math.Float64bits(rs.MaxLoadBits))
	}
	fmt.Fprintf(&b, "|L=%x|T=%x|I=%x|rep=%x|pred=%x",
		math.Float64bits(r.MaxLoadBits), math.Float64bits(r.TotalBits),
		math.Float64bits(r.InputBits), math.Float64bits(r.ReplicationRate),
		math.Float64bits(r.PredictedLoadBits))
	fmt.Fprintf(&b, "|shares=%v|heavy=%d|aborted=%t", r.Shares, r.HeavyHitters, r.Aborted)
	if r.Aggregate != "" {
		fmt.Fprintf(&b, "|agg=%s|aggsaved=%x", r.Aggregate, math.Float64bits(r.AggregateBitsSaved))
	}
	if r.Output == nil {
		b.WriteString("|out=nil")
	} else {
		// FNV-1a (hash/fnv's New64a) over the values in row order, 8
		// little-endian bytes each, folded inline.
		const offset64, prime64 = 14695981039346656037, 1099511628211
		h := uint64(offset64)
		for _, v := range r.Output.Vals() {
			for s := 0; s < 64; s += 8 {
				h = (h ^ uint64(v)>>s&0xff) * prime64
			}
		}
		fmt.Fprintf(&b, "|out=%d/%d#%016x", r.Output.NumTuples(), r.Output.Arity, h)
	}
	return b.String()
}

// EqualRelations reports whether two relations hold the same bag of tuples,
// in any order — the check every example and test uses to validate a
// parallel run against the sequential answer. The comparison is a true
// multiset compare: order is ignored but multiplicity is respected, so a
// run that duplicated or deduplicated output tuples does not pass.
func EqualRelations(a, b *Relation) bool { return data.EqualMultiset(a, b) }

// EqualRelationsSet reports whether two relations hold the same set of
// tuples, ignoring both order and multiplicity — the looser comparison for
// workloads whose inputs contain duplicate tuples (where per-server bag
// semantics and a deduplicating consumer may legitimately disagree on
// counts).
func EqualRelationsSet(a, b *Relation) bool { return data.Equal(a, b) }
