package localjoin

import (
	"mpcquery/internal/aggregate"
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/hashing"
	"mpcquery/internal/query"
)

// aggregateOutput is Output's aggregate tail: the local evaluation (folding
// when pushdown is on, materializing and projecting raw rows when off), the
// aggregate-shuffle round that routes each (key..., value) partial row by
// group-key hash, and the destination-side final fold. It returns the
// canonical aggregate output and the bits the pushdown saved, both gathered
// over every server, owned or not. The layout must produce each output row
// on one server only, so that no row is folded twice.
func aggregateOutput(cluster *engine.Cluster, q *query.Query, layout hashing.Layout, agg *aggregate.Plan) (*data.Relation, float64) {
	gp := cluster.P()
	ka := agg.KeyArity()
	partials := make([]*data.Relation, gp)
	rawRows := make([]int, gp)
	Phase(cluster, q, layout, func(s int, sc *Scratch, frags []*data.Relation, sh *Shared) {
		partials[s], rawRows[s] = sc.EvaluateAtomsAggregate(q, frags, sh, agg)
	})

	// A pushdown sender's partial already holds one row per group, so it
	// ships as it is; a no-pushdown sender ships one row per join row. Rows
	// keep their order, one batch per destination.
	sentRows := make([]int, gp)
	cluster.Round("aggregate-shuffle", func(s int, _ *engine.Inbox, emit *engine.Emitter) {
		pr := partials[s]
		if pr == nil {
			return
		}
		m := pr.NumTuples()
		for i := 0; i < m; i++ {
			row := pr.Tuple(i)
			emit.EmitTuple(aggregate.DestOf(row[:ka], gp), 0, row)
		}
		sentRows[s] = m
	})

	outputs := make([]*data.Relation, gp)
	cluster.Compute(func(s int, ib *engine.Inbox, w int) {
		if ib.NumTuples() == 0 {
			return
		}
		t := aggregate.NewFoldTable(ka, agg.Semiring)
		ib.EachBatch(func(b engine.Batch) {
			t.AddRows(b.Vals)
		})
		outputs[s] = aggregate.Rows(t.Result(q.Name), agg)
	})
	out := cluster.Gather(q.Name, agg.OutArity(), outputs)

	savedRows := make([]*data.Relation, gp)
	lo, hi := cluster.Owned()
	for s := lo; s < hi; s++ {
		savedRows[s] = data.FromVals("saved", 1, []int64{int64(rawRows[s] - sentRows[s])})
	}
	saved := int64(0)
	for _, v := range cluster.Gather("saved", 1, savedRows).Vals() {
		saved += v
	}
	return aggregate.Canonical(out), float64(saved) * float64(ka+1) * float64(cluster.BitsPerValue())
}

// EvaluateAtomsAggregate is the kernel's aggregate output path: it runs the
// same columnar hash join as EvaluateAtoms but folds each surviving binding
// straight into a group-by table instead of materializing the output
// relation — the binding arena is read column-wise once and only one row per
// distinct group is ever allocated. It returns the server's partial
// aggregates as (key..., value) rows of arity plan.KeyArity()+1, in
// first-contact group order, plus the number of raw join rows folded, which
// the caller uses to meter the communication the pre-shuffle aggregation
// saved. With plan.Pushdown off nothing is folded: the materialized output
// is projected to one (group key, value) row per join row
// (aggregate.ProjectRaw), which is what such a sender ships.
//
// Inputs follow checkInputs' rule, like every kernel entry point; sh may be
// nil.
func (s *Scratch) EvaluateAtomsAggregate(q *query.Query, rels []*data.Relation, sh *Shared, plan *aggregate.Plan) (partials *data.Relation, rawRows int) {
	ka := plan.KeyArity()
	if checkInputs(q, rels, sh) {
		return data.NewRelation(q.Name, ka+1), 0
	}
	order := s.greedyOrder(q, rels)
	if !plan.Pushdown {
		out := s.run(q, rels, order, sh)
		groupCols, aggCol := aggregateCols(q, plan)
		return aggregate.ProjectRaw(out, groupCols, aggCol, plan), out.NumTuples()
	}
	partials = data.NewRelation(q.Name, ka+1)
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
// EvaluateAtomsAggregate is checked against (tests and benchmark/): the
// output's raw (key..., value) rows, folded as a destination folds what it
// receives.
func FoldOutput(out *data.Relation, q *query.Query, plan *aggregate.Plan) *data.Relation {
	groupCols, aggCol := aggregateCols(q, plan)
	t := aggregate.NewFoldTable(plan.KeyArity(), plan.Semiring)
	t.AddRows(aggregate.ProjectRaw(out, groupCols, aggCol, plan).Vals())
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
