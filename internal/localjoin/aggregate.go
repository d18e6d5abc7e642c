package localjoin

import (
	"slices"

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
// The fold counts rather than enumerates the trailing steps of the join
// order that it can: the longest suffix of steps k… (k ≥ 1) whose keys the
// steps before k bind and whose fresh variables are neither grouped by nor
// aggregated. Only steps < k are enumerated; every binding they leave folds
// once, with the product of its match counts in the counted steps as its
// multiplicity (Semiring.Repeat), and a binding with none is dropped. The
// counted rows of a binding are consecutive in the full join's order and
// share its group key and annotation, so the partial rows, their order and
// rawRows are those of folding every join row. On a star grouped by its
// center, a heavy center value's deg·deg rows fold as its deg bindings of
// the first atom, each counted from one chain walk per evaluation.
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
	steps, k, aggCol := s.planFold(q, order, plan)
	if s.fold == nil {
		s.fold = aggregate.NewFoldTable(ka, plan.Semiring)
	} else {
		s.fold.Reset(ka, plan.Semiring)
	}
	key := append(s.groupKey[:0], make([]int64, ka)...) // all zero: a global aggregate's synthetic key
	s.groupKey = key
	if s.memoGen++; s.memoGen == 0 {
		for _, m := range s.memos {
			clear(m)
		}
		s.memoGen = 1
	}
	s.join(rels, steps[:k], sh, rels[order[0]].NumTuples(), nil, func(rows int) {
		mult := s.multiplicities(rels, steps, k, sh, rows)
		for r, n := range mult {
			if n == 0 {
				continue
			}
			for i, c := range s.groupCols {
				key[i] = s.cols[c][r]
			}
			av := int64(0)
			if aggCol >= 0 {
				av = s.cols[aggCol][r]
			}
			s.fold.Add(key, plan.Semiring.Repeat(plan.InitAnnotation(av), n))
			rawRows += int(n)
		}
	})
	return s.fold.Result(q.Name), rawRows
}

// planFold plans the join steps in order and resolves plan's group-by
// variables (into s.groupCols) and aggregated variable (aggCol, -1: none) to
// binding columns. It returns k, the number of leading steps the fold
// enumerates: the smallest k ≥ 1 such that every step from k on is keyed on
// columns bound before k and binds no group-by or aggregated column. The
// condition holds for k whenever it holds for a smaller k, so the search
// walks down from len(steps), where it holds trivially.
func (s *Scratch) planFold(q *query.Query, order []int, plan *aggregate.Plan) (steps []joinStep, k, aggCol int) {
	steps = s.planSteps(q, order)
	s.groupCols = s.groupCols[:0]
	for _, v := range plan.GroupBy {
		s.groupCols = append(s.groupCols, s.varPos[v])
	}
	aggCol = -1
	if plan.Var != "" {
		aggCol = s.varPos[plan.Var]
	}
	countable := func(k int) bool {
		nb := steps[k].nb
		if aggCol >= nb || slices.ContainsFunc(s.groupCols, func(c int) bool { return c >= nb }) {
			return false
		}
		for i := k; i < len(steps); i++ {
			if slices.ContainsFunc(steps[i].sharedBind, func(c int) bool { return c >= nb }) {
				return false
			}
		}
		return true
	}
	k = len(steps)
	for k > 1 && countable(k-1) {
		k--
	}
	return steps, k, aggCol
}

// multiplicities returns, for each of the rows bindings of the enumerated
// steps[:k] in s.cols, the product of its match counts in steps[k:] (0: the
// binding joins nothing there). A counted step's index is fetched or built
// only while some binding still has a match, so the fold requests the
// indexes, shared or private, that the full join's probes would. Products
// are taken modulo 2⁶⁴, like the count and sum they weigh; a binding with
// 2⁶⁴ or more join rows, which no enumeration could reach, is beyond the
// fold.
func (s *Scratch) multiplicities(rels []*data.Relation, steps []joinStep, k int, sh *Shared, rows int) []int64 {
	mult := slices.Grow(s.mult[:0], rows)[:rows]
	for r := range mult {
		mult[r] = 1
	}
	s.mult = mult
	for i, live := k, rows; i < len(steps) && live > 0; i++ {
		st := &steps[i]
		if st.ix == nil {
			st.ix = s.stepIndex(i, st, rels[st.atom], sh)
		}
		if len(st.sharedBind) == 1 {
			live = st.ix.countOne(s.cols[st.sharedBind[0]][:rows], mult, s.slotMemo(i, len(st.ix.head)), s.memoGen)
		} else {
			live = s.countKeys(st, mult)
		}
	}
	return mult
}

// slotMemo returns step's per-slot count memo for an index of the given
// number of slots. Entries of an earlier evaluation are stale by their gen.
func (s *Scratch) slotMemo(step, slots int) []slotCount {
	for len(s.memos) <= step {
		s.memos = append(s.memos, nil)
	}
	if cap(s.memos[step]) < slots {
		s.memos[step] = make([]slotCount, slots)
	}
	return s.memos[step][:slots]
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
