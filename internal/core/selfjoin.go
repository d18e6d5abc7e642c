package core

import (
	"fmt"

	"mpcquery/internal/data"
	"mpcquery/internal/query"
)

// The paper restricts to queries without self-joins and notes (footnote 2)
// that this is without loss of generality: repeated occurrences of a
// relation are renamed apart and the relation is logically copied, at the
// cost of an ℓ-times-larger input in the worst case. This file makes that
// reduction practical: DesugarSelfJoins renames the atoms, and SelfJoinView
// pairs the renamed query with a database in which each copy reads the
// shared relation under its new name, for any strategy to run.

// DesugarSelfJoins renames repeated relation occurrences apart
// (E, E#2, E#3, …) and returns the resulting self-join-free query together
// with the mapping from new atom names to the original relation names.
func DesugarSelfJoins(name string, atoms []query.Atom) (*query.Query, map[string]string) {
	counts := make(map[string]int)
	mapping := make(map[string]string, len(atoms))
	renamed := make([]query.Atom, len(atoms))
	for i, a := range atoms {
		counts[a.Name]++
		newName := a.Name
		if counts[a.Name] > 1 {
			newName = fmt.Sprintf("%s#%d", a.Name, counts[a.Name])
		}
		mapping[newName] = a.Name
		renamed[i] = query.Atom{Name: newName, Vars: append([]string(nil), a.Vars...)}
	}
	return query.New(name, renamed...), mapping
}

// SelfJoinView renames the atoms apart and returns the self-join-free query
// with a database in which each renamed copy reads the shared relation
// through a renamed view.
func SelfJoinView(name string, atoms []query.Atom, db *data.Database) (*query.Query, *data.Database) {
	q, mapping := DesugarSelfJoins(name, atoms)
	view := data.NewDatabase(db.N)
	for newName, orig := range mapping {
		rel := db.Get(orig)
		if rel.Name != newName {
			r := rel.Clone()
			r.Name = newName
			rel = r
		}
		view.Add(rel)
	}
	return q, view
}

// SequentialAnswerWithSelfJoins is the single-node ground truth for a run on
// SelfJoinView.
func SequentialAnswerWithSelfJoins(name string, atoms []query.Atom, db *data.Database) *data.Relation {
	return SequentialAnswer(SelfJoinView(name, atoms, db))
}
