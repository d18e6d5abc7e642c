package localjoin

import (
	"mpcquery/internal/aggregate"
	"mpcquery/internal/data"
	"mpcquery/internal/query"
)

// EvaluateAtomsAggregate is the kernel's aggregate output path: it runs the
// same columnar hash join as EvaluateAtoms but folds each surviving binding
// straight into a group-by table instead of materializing the output
// relation — the binding arena is read column-wise once and only one row per
// distinct group is ever allocated. It returns the server's partial
// aggregates as an annotated relation (arity = plan.KeyArity(), annotation
// column = folded values, first-contact group order) plus the number of raw
// join rows folded, which the caller uses to meter the communication the
// pre-shuffle aggregation saved. With plan.Pushdown off nothing is folded:
// the materialized output is projected to one (group key, annotation) row per
// join row (aggregate.ProjectRaw), which is what such a sender ships.
//
// Inputs follow checkInputs' rule, like every kernel entry point; sh may be
// nil.
func (s *Scratch) EvaluateAtomsAggregate(q *query.Query, rels []*data.Relation, sh *Shared, plan *aggregate.Plan) (partials *data.Relation, rawRows int) {
	ka := plan.KeyArity()
	if checkInputs(q, rels, sh) {
		return data.NewRelation(q.Name, ka), 0
	}
	order := s.greedyOrder(q, rels)
	if !plan.Pushdown {
		out := s.run(q, rels, order, sh)
		groupCols, aggCol := aggregateCols(q, plan)
		return aggregate.ProjectRaw(out, groupCols, aggCol, plan), out.NumTuples()
	}
	partials = data.NewRelation(q.Name, ka)
	s.join(q, rels, order, sh, rels[order[0]].NumTuples(), func(rows int) {
		// Resolve the group-by and aggregated variables to binding columns
		// (every query variable is bound once rows > 0).
		t := aggregate.NewFoldTable(ka, plan.Semiring)
		groupCols := make([]int, len(plan.GroupBy))
		for i, v := range plan.GroupBy {
			groupCols[i] = s.varPos[v]
		}
		aggCol := -1
		if plan.Var != "" {
			aggCol = s.varPos[plan.Var]
		}
		key := make([]int64, ka) // synthetic all-zero key for global aggregates
		for r := 0; r < rows; r++ {
			for i, c := range groupCols {
				key[i] = s.cols[c][r]
			}
			av := int64(0)
			if aggCol >= 0 {
				av = s.cols[aggCol][r]
			}
			t.Add(key, plan.InitAnnotation(av))
		}
		partials, rawRows = t.Result(q.Name), rows
	})
	return partials, rawRows
}

// FoldOutput folds a fully materialized join output (tuples in q.Vars()
// order) into partial aggregates — the reference fold the fused path of
// EvaluateAtomsAggregate is checked against (tests and benchmark/).
func FoldOutput(out *data.Relation, q *query.Query, plan *aggregate.Plan) *data.Relation {
	ka := plan.KeyArity()
	t := aggregate.NewFoldTable(ka, plan.Semiring)
	groupCols, aggCol := aggregateCols(q, plan)
	key := make([]int64, ka)
	m := out.NumTuples()
	for i := 0; i < m; i++ {
		tp := out.Tuple(i)
		for c, gc := range groupCols {
			key[c] = tp[gc]
		}
		av := int64(0)
		if aggCol >= 0 {
			av = tp[aggCol]
		}
		t.Add(key, plan.InitAnnotation(av))
	}
	return t.Result(out.Name)
}

// aggregateCols resolves plan's group-by variables and aggregated variable
// (-1: none) to columns of q's output.
func aggregateCols(q *query.Query, plan *aggregate.Plan) (groupCols []int, aggCol int) {
	groupCols = make([]int, len(plan.GroupBy))
	for i, v := range plan.GroupBy {
		groupCols[i] = q.VarIndex(v)
	}
	aggCol = -1
	if plan.Var != "" {
		aggCol = q.VarIndex(plan.Var)
	}
	return groupCols, aggCol
}
