package core

import (
	"math/rand"
	"testing"

	"mpcquery/internal/data"
	"mpcquery/internal/query"
)

func TestDesugarSelfJoins(t *testing.T) {
	atoms := []query.Atom{
		{Name: "E", Vars: []string{"x", "y"}},
		{Name: "E", Vars: []string{"y", "z"}},
		{Name: "E", Vars: []string{"z", "w"}},
	}
	q, mapping := DesugarSelfJoins("path3", atoms)
	if q.NumAtoms() != 3 {
		t.Fatalf("atoms=%d", q.NumAtoms())
	}
	names := map[string]bool{}
	for _, a := range q.Atoms {
		if names[a.Name] {
			t.Fatalf("duplicate atom name %q after desugar", a.Name)
		}
		names[a.Name] = true
		if mapping[a.Name] != "E" {
			t.Fatalf("mapping[%s]=%s", a.Name, mapping[a.Name])
		}
	}
}

// TestSelfJoinPath2 computes length-2 paths E(x,y), E(y,z) on a random
// graph — the classic self-join the paper's footnote 2 addresses.
func TestSelfJoinPath2(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := int64(200)
	db := data.NewDatabase(n)
	e := data.NewRelation("E", 2)
	for i := 0; i < 600; i++ {
		e.Append(rng.Int63n(n), rng.Int63n(n))
	}
	db.Add(e)
	atoms := []query.Atom{
		{Name: "E", Vars: []string{"x", "y"}},
		{Name: "E", Vars: []string{"y", "z"}},
	}
	q, view := SelfJoinView("path2", atoms, db)
	res := RunPlan(PlanForDatabase(q, view, 16, SkewFree), view, 7)
	want := SequentialAnswerWithSelfJoins("path2", atoms, db)
	if !data.Equal(res.Output, want) {
		t.Fatalf("self-join path2: %d vs %d tuples", res.Output.NumTuples(), want.NumTuples())
	}
	if want.NumTuples() == 0 {
		t.Fatal("vacuous test: no length-2 paths")
	}
}

// TestSelfJoinTriangleSingleRelation computes triangles within one edge
// relation: E(x,y), E(y,z), E(z,x).
func TestSelfJoinTriangleSingleRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := int64(60)
	db := data.NewDatabase(n)
	e := data.NewRelation("E", 2)
	for i := 0; i < 500; i++ {
		e.Append(rng.Int63n(n), rng.Int63n(n))
	}
	db.Add(e)
	atoms := []query.Atom{
		{Name: "E", Vars: []string{"x", "y"}},
		{Name: "E", Vars: []string{"y", "z"}},
		{Name: "E", Vars: []string{"z", "x"}},
	}
	q, view := SelfJoinView("tri", atoms, db)
	res := RunPlan(PlanForDatabase(q, view, 27, SkewFree), view, 3)
	want := SequentialAnswerWithSelfJoins("tri", atoms, db)
	if !data.Equal(res.Output, want) {
		t.Fatalf("self-join triangle: %d vs %d", res.Output.NumTuples(), want.NumTuples())
	}
	if want.NumTuples() == 0 {
		t.Fatal("vacuous test: no triangles")
	}
}
