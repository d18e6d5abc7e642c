// Package localjoin evaluates full conjunctive queries on a single server —
// the computation phase of an MPC round. The MPC model places no limit on
// local computation, but wall-clock does: the evaluator here is a columnar
// hash-join kernel (open-addressed int64-keyed indexes, a struct-of-arrays
// binding arena, per-worker reusable scratch) that allocates nothing on the
// steady-state path beyond its output, with a round-scoped IndexCache that
// shares index builds across the servers a route sends the same fragment to.
// The pre-kernel evaluator is preserved verbatim in the baseline subpackage
// for equivalence testing and ablation; the kernel reproduces its output
// tuple-for-tuple, in order.
package localjoin

import (
	"errors"
	"fmt"
	"sync/atomic"

	"mpcquery/internal/data"
	"mpcquery/internal/localjoin/baseline"
	"mpcquery/internal/query"
)

// ErrMissingRelation is the sentinel wrapped by MissingRelationError; test
// with errors.Is. The Run boundary in the root package converts it into its
// public ErrMissingRelation.
var ErrMissingRelation = errors.New("localjoin: missing relation")

// MissingRelationError reports that evaluation referenced an atom with no
// relation supplied. EvaluateOrdered returns it; the kernel's other entry
// points — whose callers pre-validate inputs — panic with it (checkInputs),
// and the Run error boundary converts the panic into an ordinary error
// instead of letting it cross the public API.
type MissingRelationError struct {
	Atom string
}

func (e *MissingRelationError) Error() string {
	return fmt.Sprintf("localjoin: missing relation %q", e.Atom)
}

// Unwrap makes errors.Is(err, ErrMissingRelation) hold.
func (e *MissingRelationError) Unwrap() error { return ErrMissingRelation }

// baselineMode routes every kernel entry point to the baseline evaluator —
// the test hook that lets the strategy-equivalence suite run entire
// strategies on both implementations and compare Report fingerprints.
var baselineMode atomic.Bool

// SetBaselineForTest switches evaluation to the frozen baseline evaluator
// (true) or back to the kernel (false). It exists for equivalence tests
// only; flipping it while evaluations are in flight is safe (the flag is
// atomic) but makes which evaluator ran unpredictable per call.
func SetBaselineForTest(on bool) { baselineMode.Store(on) }

// verifyShared makes every fetch from an IndexCache compare the index's
// stored values with the fetching server's fragment and panic on a
// difference: the test-only check of the provenance contract a Shared
// handle's ids promise.
var verifyShared atomic.Bool

// VerifySharedForTest switches that check on or off. It exists for tests
// only.
func VerifySharedForTest(on bool) { verifyShared.Store(on) }

// fragmentObserver, when set, is shown every fragment a server presents under
// a non-zero id, before the evaluation looks at it.
var fragmentObserver atomic.Pointer[func(cache *IndexCache, atom int, id uint64, vals []int64)]

// ObserveFragmentsForTest installs fn (nil removes it) as that observer; the
// phase's workers call it concurrently. It exists for the provenance tests
// only.
func ObserveFragmentsForTest(fn func(cache *IndexCache, atom int, id uint64, vals []int64)) {
	if fn == nil {
		fragmentObserver.Store(nil)
		return
	}
	fragmentObserver.Store(&fn)
}

// Evaluate computes q over the given relations (one per atom name) and
// returns the full result, one column per variable in q.Vars() order.
// Duplicate output tuples are produced if the inputs are bags. Inputs are
// assumed validated (every atom present); a missing relation panics with
// *MissingRelationError — use EvaluateOrdered for an error-returning entry
// point.
func Evaluate(q *query.Query, rels map[string]*data.Relation) *data.Relation {
	s := GrabScratch()
	defer s.Release()
	return s.Evaluate(q, rels)
}

// EvaluateOrdered is Evaluate with an explicit atom join order (a
// permutation of atom indices). It exists for join-order ablations; the
// default greedy order of Evaluate is usually much faster on connected
// queries because every step stays bound to previous atoms. A relation
// missing for some atom yields a *MissingRelationError (errors.Is
// ErrMissingRelation) rather than a panic, so an ablation harness can probe
// incomplete databases without tripping the engine's panic propagation.
func EvaluateOrdered(q *query.Query, rels map[string]*data.Relation, order []int) (*data.Relation, error) {
	for _, ai := range order {
		if ai < 0 || ai >= q.NumAtoms() {
			return nil, fmt.Errorf("localjoin: order index %d out of range for %d atoms", ai, q.NumAtoms())
		}
		if rels[q.Atoms[ai].Name] == nil {
			return nil, &MissingRelationError{Atom: q.Atoms[ai].Name}
		}
	}
	if baselineMode.Load() {
		return baseline.EvaluateOrdered(q, rels, order), nil
	}
	s := GrabScratch()
	defer s.Release()
	return s.run(q, s.byAtom(q, rels), order, nil), nil
}

// SemiJoin returns the tuples of l that join with at least one tuple of r
// on their common variables (the paper's ⋉ of Section 5.2). It probes the
// kernel's open-addressed index over r — no string keys, no per-tuple
// allocation.
func SemiJoin(l, r *data.Relation, lVars, rVars []string) *data.Relation {
	return semiJoin(l, r, lVars, rVars, true)
}

// AntiJoin returns the tuples of l with no matching tuple in r on the
// common variables (the paper's ▷ of Section 5.2).
func AntiJoin(l, r *data.Relation, lVars, rVars []string) *data.Relation {
	return semiJoin(l, r, lVars, rVars, false)
}

func semiJoin(l, r *data.Relation, lVars, rVars []string, keep bool) *data.Relation {
	lCols, rCols := commonColumns(lVars, rVars)
	s := GrabScratch()
	defer s.Release()
	for len(s.idxs) == 0 {
		s.idxs = append(s.idxs, atomIndex{})
	}
	ix := &s.idxs[0]
	ix.build(r, rCols, nil, false)

	out := data.NewRelation(l.Name, l.Arity)
	nk := len(lCols)
	if cap(s.key) < nk {
		s.key = make([]int64, nk)
	}
	key := s.key[:nk]
	m := l.NumTuples()
	for i := 0; i < m; i++ {
		t := l.Tuple(i)
		for c, lc := range lCols {
			key[c] = t[lc]
		}
		if ix.contains(key) == keep {
			out.AppendTuple(t)
		}
	}
	return out
}

// commonColumns maps the shared variables of two schemas to their column
// positions on each side.
func commonColumns(lVars, rVars []string) (lCols, rCols []int) {
	rIdx := make(map[string]int, len(rVars))
	for i, v := range rVars {
		rIdx[v] = i
	}
	for i, v := range lVars {
		if j, ok := rIdx[v]; ok {
			lCols = append(lCols, i)
			rCols = append(rCols, j)
		}
	}
	return lCols, rCols
}
