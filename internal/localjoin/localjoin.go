// Package localjoin evaluates full conjunctive queries on a single server —
// the computation phase of an MPC round. The MPC model places no limit on
// local computation, but wall-clock does: the evaluator here is a columnar
// hash-join kernel (open-addressed int64-keyed indexes, a struct-of-arrays
// binding arena, per-worker reusable scratch) that allocates nothing on the
// steady-state path beyond its output, with a round-scoped IndexCache that
// shares index builds across the servers a route sends the same fragment to.
// The pre-kernel evaluator is preserved verbatim in the baseline subpackage
// as the reference of this package's tests, which no other code imports; the
// kernel reproduces its output tuple-for-tuple, in order.
package localjoin

import (
	"errors"
	"fmt"
	"sync/atomic"

	"mpcquery/internal/data"
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

// verifyShared makes every fetch from an IndexCache compare the index's
// stored values with the fetching server's fragment and panic on a
// difference: the test-only check of the provenance contract a Shared
// handle's ids promise.
var verifyShared atomic.Bool

// VerifySharedForTest switches that check on or off. It exists for tests
// only.
func VerifySharedForTest(on bool) { verifyShared.Store(on) }

// fragmentObserver, when set, is shown every fragment a server presents under
// a non-zero id, before the evaluation looks at it, with the server and the
// number of servers of its cluster.
var fragmentObserver atomic.Pointer[func(cache *IndexCache, servers, server, atom int, id uint64, vals []int64)]

// ObserveFragmentsForTest installs fn (nil removes it) as that observer; the
// phase's workers call it concurrently. It exists for the provenance tests
// only.
func ObserveFragmentsForTest(fn func(cache *IndexCache, servers, server, atom int, id uint64, vals []int64)) {
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
	s := GrabScratch()
	defer s.Release()
	return s.run(q, s.byAtom(q, rels), order, nil), nil
}
