package mpcquery

import (
	"context"
	"errors"
	"fmt"

	"mpcquery/internal/aggregate"
)

// Aggregation errors; test with errors.Is.
var (
	// ErrInvalidAggregate: the aggregate specification does not fit the
	// query (unknown operator, group-by or aggregated variable not in the
	// query, Of set for Count or missing for Sum/Min/Max).
	ErrInvalidAggregate = errors.New("invalid aggregate")
	// ErrAggregateUnsupported: the selected strategy has no aggregate path.
	// Every built-in strategy has one; Run returns this for an external
	// Strategy implementation, before it executes.
	ErrAggregateUnsupported = errors.New("strategy does not support aggregation")
)

// AggregateOp selects the aggregation operator of an aggregate query.
type AggregateOp int

// The supported aggregate operators. AggCount counts join-output tuples;
// AggSum/AggMin/AggMax fold the value of the aggregated variable.
const (
	AggCount AggregateOp = AggregateOp(aggregate.Count)
	AggSum   AggregateOp = AggregateOp(aggregate.Sum)
	AggMin   AggregateOp = AggregateOp(aggregate.Min)
	AggMax   AggregateOp = AggregateOp(aggregate.Max)
)

func (op AggregateOp) String() string { return aggregate.Op(op).String() }

// AggregateSpec is the aggregate attached to one Run: the operator, the
// aggregated variable (empty for AggCount), and the group-by variables
// (empty for a global aggregate). It reaches strategies through
// ExecContext.Aggregate.
type AggregateSpec struct {
	Op      AggregateOp
	Of      string
	GroupBy []string
}

// validate checks the spec against the query it will run over.
func (sp *AggregateSpec) validate(q *Query) error {
	if !aggregate.Op(sp.Op).Valid() {
		return fmt.Errorf("mpcquery: %w: unknown operator %d", ErrInvalidAggregate, int(sp.Op))
	}
	if sp.Op == AggCount && sp.Of != "" {
		return fmt.Errorf("mpcquery: %w: count takes no aggregated variable (got %q)", ErrInvalidAggregate, sp.Of)
	}
	if sp.Op != AggCount {
		if sp.Of == "" {
			return fmt.Errorf("mpcquery: %w: %s needs an aggregated variable", ErrInvalidAggregate, sp.Op)
		}
		if q.VarIndex(sp.Of) < 0 {
			return fmt.Errorf("mpcquery: %w: aggregated variable %q not in query %s", ErrInvalidAggregate, sp.Of, q)
		}
	}
	seen := make(map[string]bool, len(sp.GroupBy))
	for _, v := range sp.GroupBy {
		if q.VarIndex(v) < 0 {
			return fmt.Errorf("mpcquery: %w: group-by variable %q not in query %s", ErrInvalidAggregate, v, q)
		}
		if seen[v] {
			return fmt.Errorf("mpcquery: %w: duplicate group-by variable %q", ErrInvalidAggregate, v)
		}
		seen[v] = true
	}
	return nil
}

// AggregateQuery is an aggregation over the output of a conjunctive join:
// op (over variable Of, for AggSum/AggMin/AggMax) grouped by GroupBy. The
// output relation holds one sorted tuple per group, (group key..., value);
// a global aggregate (empty GroupBy) yields a single (value) tuple, or no
// tuple when the join is empty.
type AggregateQuery struct {
	Join    *Query
	Op      AggregateOp
	Of      string   // aggregated variable; "" for AggCount
	GroupBy []string // group-by variables; empty = global aggregate
}

// Spec returns the query's aggregate specification.
func (aq AggregateQuery) Spec() AggregateSpec {
	return AggregateSpec{Op: aq.Op, Of: aq.Of, GroupBy: aq.GroupBy}
}

// RunAggregate executes an aggregate query — shorthand for Run on the join
// body with WithAggregate attached:
//
//	aq := mpcquery.AggregateQuery{Join: mpcquery.Star(2), Op: mpcquery.AggCount, GroupBy: []string{"z"}}
//	rep, err := mpcquery.RunAggregate(aq, db, mpcquery.WithServers(64))
//	// rep.Output: one (z, count) tuple per group, sorted by z
//
// Senders partially aggregate same-group tuples before the aggregate
// shuffle by default; WithAggregatePushdown(false) disables it (for
// measuring the savings — Report.AggregateBitsSaved and TotalBits change,
// the final values never do).
func RunAggregate(aq AggregateQuery, db *Database, opts ...RunOption) (*Report, error) {
	return Run(aq.Join, db, append(append([]RunOption(nil), opts...),
		WithAggregate(aq.Op, aq.Of, aq.GroupBy...))...)
}

// RunAggregate executes an aggregate query through the service, with the
// same admission control, caching, and metrics as Run. Plan-cache entries
// are shared with plain runs of the same join shape — planning is
// aggregate-independent.
func (s *Service) RunAggregate(ctx context.Context, aq AggregateQuery, db *Database, opts ...RunOption) (*Report, error) {
	return s.Run(ctx, aq.Join, db, append(append([]RunOption(nil), opts...),
		WithAggregate(aq.Op, aq.Of, aq.GroupBy...))...)
}

// aggregatePlan resolves the context's aggregate spec (nil when the run is
// a plain join) into the internal executor plan.
func (ctx ExecContext) aggregatePlan() *aggregate.Plan {
	if ctx.Aggregate == nil {
		return nil
	}
	return aggregate.NewPlan(aggregate.Op(ctx.Aggregate.Op), ctx.Aggregate.Of,
		ctx.Aggregate.GroupBy, ctx.AggPushdown)
}

// aggDescribe renders a spec for Report.Aggregate ("count() by z", ...).
func aggDescribe(sp *AggregateSpec) string {
	return aggregate.NewPlan(aggregate.Op(sp.Op), sp.Of, sp.GroupBy, true).Describe()
}
