package localjoin

import (
	"mpcquery/internal/data"
	"mpcquery/internal/query"
)

// EvaluateAtomsStream is EvaluateAtoms with a streamed output: instead of
// materializing the full result relation it yields row-major blocks of
// output tuples (arity q.NumVars(), in q.Vars() column order) and returns
// the total row count. It is the same join with a smaller window: the first
// atom of the unchanged greedy order is scanned chunkRows tuples at a time
// and the last step writes every window's rows straight into the scratch's
// block, which is yielded whole, so the concatenation of the blocks is
// byte-identical to EvaluateAtoms' output and the index builds and cache
// requests are those of one barrier evaluation — only peak memory differs.
// The yielded slice is reused across calls: consume or copy it before yield
// returns.
func (s *Scratch) EvaluateAtomsStream(q *query.Query, rels []*data.Relation, sh *Shared, chunkRows int, yield func(vals []int64)) int {
	if checkInputs(q, rels, sh) {
		return 0
	}
	if s.block == nil || s.block.Arity != q.NumVars() {
		s.block = data.NewRelation(q.Name, q.NumVars())
	}
	s.block.Reset()
	total := 0
	s.join(rels, s.planSteps(q, s.greedyOrder(q, rels)), sh, max(chunkRows, 1), s.block, func(rows int) {
		yield(s.block.Vals())
		s.block.Reset()
		total += rows
	})
	return total
}
