package engine

import (
	"slices"

	"mpcquery/internal/data"
)

// RunRecord is the one report every strategy family's executor returns: the
// paper's two costs (Section 2.1) — the rounds, in execution order, each
// with its maximum load — next to the output and the executor's own
// bookkeeping. Cluster.Record fills it from what the cluster metered; Then
// and Beside compose the records of runs executed one after the other or
// side by side, so no executor re-derives the costs.
type RunRecord struct {
	Output *data.Relation // full result (union over servers); nil when a sink consumed it
	Rounds []RoundStats   // every communication round, in execution order

	ServersUsed  int     // servers the run's layout spans
	InputBits    float64 // Σ_j M_j, the input size in bits
	HeavyHitters int     // values a skew-aware layout gave dedicated servers

	// AggregateBitsSaved is the communication the pre-shuffle partial
	// aggregation removed: (raw join rows − shipped partial rows) × row bits,
	// summed over senders. 0 for plain runs and no-pushdown aggregate runs.
	AggregateBitsSaved float64
}

// Record returns the run record of everything the cluster executed so far:
// its rounds and its server count, with the output and input size the
// caller supplies. The record owns its copy of the rounds.
func (c *Cluster) Record(out *data.Relation, inputBits float64) *RunRecord {
	return &RunRecord{
		Output:      out,
		Rounds:      slices.Clone(c.rounds),
		ServersUsed: c.p,
		InputBits:   inputBits,
	}
}

// MaxLoadBits returns L, the maximum number of bits received by any server
// in any round — the paper's load parameter.
func (r *RunRecord) MaxLoadBits() float64 {
	best := 0.0
	for _, rs := range r.Rounds {
		best = max(best, rs.MaxRecvBits)
	}
	return best
}

// TotalBits returns the total communication Σ_rounds Σ_s (bits received).
func (r *RunRecord) TotalBits() float64 {
	total := 0.0
	for _, rs := range r.Rounds {
		total += rs.TotalRecvBits
	}
	return total
}

// ReplicationRate returns TotalBits / InputBits, the average number of times
// each input bit is communicated (Section 3.4); 0 for an empty input.
func (r *RunRecord) ReplicationRate() float64 {
	if r.InputBits <= 0 {
		return 0
	}
	return r.TotalBits() / r.InputBits
}

// Aborted reports whether any round exceeded its declared load cap.
func (r *RunRecord) Aborted() bool {
	return slices.ContainsFunc(r.Rounds, func(rs RoundStats) bool { return rs.Aborted })
}

// Then makes r the record of a run that executed r and then next: next's
// rounds follow r's, and next's saved bits add to r's. The executor's
// fields (Output, ServersUsed, InputBits, HeavyHitters) stay r's.
func (r *RunRecord) Then(next *RunRecord) {
	r.Rounds = append(r.Rounds, next.Rounds...)
	r.AggregateBitsSaved += next.AggregateBitsSaved
}

// Beside merges into r a run that shared r's rounds on disjoint servers:
// round i of the merge has the larger of the two maxima, the sum of the
// totals and either abort flag; rounds only one side ran are kept as they
// are. Saved bits add; the executor's fields stay r's.
func (r *RunRecord) Beside(other *RunRecord) {
	for i, o := range other.Rounds {
		if i == len(r.Rounds) {
			r.Rounds = append(r.Rounds, other.Rounds[i:]...)
			break
		}
		rs := &r.Rounds[i]
		rs.MaxRecvBits = max(rs.MaxRecvBits, o.MaxRecvBits)
		rs.MaxRecvTuples = max(rs.MaxRecvTuples, o.MaxRecvTuples)
		rs.TotalRecvBits += o.TotalRecvBits
		rs.TotalRecvTuples += o.TotalRecvTuples
		rs.Aborted = rs.Aborted || o.Aborted
	}
	r.AggregateBitsSaved += other.AggregateBitsSaved
}
