package mpcquery

import (
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
