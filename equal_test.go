package mpcquery

import (
	"testing"

	"mpcquery/internal/query"
)

// TestEqualRelationsRespectsMultiplicity pins the bag semantics of
// EqualRelations: {t, t} and {t} are different bags even though they are
// the same set.
func TestEqualRelationsRespectsMultiplicity(t *testing.T) {
	single := NewRelation("R", 2)
	single.Append(1, 2)
	double := NewRelation("R", 2)
	double.Append(1, 2)
	double.Append(1, 2)

	if EqualRelations(single, double) {
		t.Error("EqualRelations must distinguish {t} from {t, t}")
	}
	if !EqualRelations(double, double.Clone()) {
		t.Error("a bag must equal its clone")
	}
	if !EqualRelationsSet(single, double) {
		t.Error("EqualRelationsSet must ignore multiplicity")
	}
}

// TestDuplicateInputTuplesPreserveBagSemantics: when an input relation
// contains a duplicated tuple, the parallel run must reproduce the
// sequential answer's multiplicities exactly — HyperCube routes both copies
// to the same server, where the local join multiplies multiplicities just
// as the sequential evaluation does.
func TestDuplicateInputTuplesPreserveBagSemantics(t *testing.T) {
	q := query.MustParse("q(x,y,z) :- R(x,y), S(y,z)")
	db := NewDatabase(1 << 10)
	r := NewRelation("R", 2)
	r.Append(1, 2)
	r.Append(1, 2) // duplicated input tuple
	r.Append(3, 4)
	s := NewRelation("S", 2)
	s.Append(2, 5)
	s.Append(4, 6)
	s.Append(4, 6) // duplicated on the other side too
	db.Add(r)
	db.Add(s)

	want := SequentialAnswer(q, db)
	// (1,2,5) appears twice (two copies of R(1,2)); (3,4,6) twice (two
	// copies of S(4,6)).
	if want.NumTuples() != 4 {
		t.Fatalf("sequential bag size=%d want 4", want.NumTuples())
	}

	for _, s := range []Strategy{HyperCube(), HyperCubeOblivious(), SkewedGeneric()} {
		rep, err := Run(q, db, WithStrategy(s), WithServers(8), WithSeed(7))
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !EqualRelations(rep.Output, want) {
			t.Errorf("%s: parallel bag (%d tuples) differs from sequential bag (%d tuples)",
				s.Name(), rep.Output.NumTuples(), want.NumTuples())
		}
	}
}
