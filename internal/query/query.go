// Package query represents full conjunctive queries (CQs) and the
// hypergraph-theoretic machinery of Beame, Koutris and Suciu,
// "Communication Cost in Parallel Query Processing" (Section 2.2):
// connected components, the characteristic χ(q), contraction q/M,
// radius and diameter, and the tree-like property.
//
// A query q(x1,...,xk) = S1(x̄1),...,Sℓ(x̄ℓ) is full (every variable in the
// body appears in the head) and has no self-joins (each relation symbol
// appears once); both assumptions follow the paper.
package query

import (
	"fmt"
	"sort"
	"strings"
)

// Atom is a single relational atom S(x̄) of a conjunctive query. Vars lists
// the variables in column order; a variable may repeat (e.g. after
// contraction), in which case matching tuples must agree on those columns.
type Atom struct {
	Name string
	Vars []string
}

// Arity returns the number of columns of the atom.
func (a Atom) Arity() int { return len(a.Vars) }

// DistinctVars returns the atom's variables with duplicates removed,
// preserving first-occurrence order.
func (a Atom) DistinctVars() []string {
	seen := make(map[string]bool, len(a.Vars))
	out := make([]string, 0, len(a.Vars))
	for _, v := range a.Vars {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func (a Atom) String() string {
	return a.Name + "(" + strings.Join(a.Vars, ",") + ")"
}

// HasVar reports whether variable v occurs in the atom.
func (a Atom) HasVar(v string) bool {
	for _, w := range a.Vars {
		if w == v {
			return true
		}
	}
	return false
}

// Query is a full conjunctive query without self-joins.
type Query struct {
	Name  string
	Atoms []Atom

	vars     []string       // distinct variables, first-occurrence order
	varIndex map[string]int // variable -> position in vars
}

// New builds a query from its atoms. Relation names must be distinct
// (no self-joins); New panics otherwise since such a query is outside the
// model and indicates a programming error.
func New(name string, atoms ...Atom) *Query {
	q := &Query{Name: name, Atoms: atoms}
	seen := make(map[string]bool, len(atoms))
	for _, a := range atoms {
		if seen[a.Name] {
			panic(fmt.Sprintf("query: self-join on relation %q not supported", a.Name))
		}
		seen[a.Name] = true
	}
	q.index()
	return q
}

func (q *Query) index() {
	q.varIndex = make(map[string]int)
	q.vars = q.vars[:0]
	for _, a := range q.Atoms {
		for _, v := range a.Vars {
			if _, ok := q.varIndex[v]; !ok {
				q.varIndex[v] = len(q.vars)
				q.vars = append(q.vars, v)
			}
		}
	}
}

// Vars returns the distinct variables of q in first-occurrence order.
// The returned slice must not be modified.
func (q *Query) Vars() []string { return q.vars }

// NumVars returns k, the number of distinct variables.
func (q *Query) NumVars() int { return len(q.vars) }

// NumAtoms returns ℓ, the number of atoms.
func (q *Query) NumAtoms() int { return len(q.Atoms) }

// TotalArity returns a = Σj aj, the sum of the arities of all atoms.
func (q *Query) TotalArity() int {
	a := 0
	for _, at := range q.Atoms {
		a += at.Arity()
	}
	return a
}

// VarIndex returns the position of variable v in Vars(), or -1.
func (q *Query) VarIndex(v string) int {
	if i, ok := q.varIndex[v]; ok {
		return i
	}
	return -1
}

// AtomDims returns, for every atom j, the variable index of each of its
// columns: the grid dimension a route hashes that column on.
func (q *Query) AtomDims() [][]int {
	dims := make([][]int, len(q.Atoms))
	for j, a := range q.Atoms {
		dims[j] = make([]int, len(a.Vars))
		for c, v := range a.Vars {
			dims[j][c] = q.VarIndex(v)
		}
	}
	return dims
}

// AtomsOf returns the indices of the atoms containing variable v
// (the paper's atoms(x_i)).
func (q *Query) AtomsOf(v string) []int {
	var out []int
	for j, a := range q.Atoms {
		if a.HasVar(v) {
			out = append(out, j)
		}
	}
	return out
}

// AtomIndex returns the index of the atom with the given relation name, or -1.
func (q *Query) AtomIndex(name string) int {
	for j, a := range q.Atoms {
		if a.Name == name {
			return j
		}
	}
	return -1
}

func (q *Query) String() string {
	parts := make([]string, len(q.Atoms))
	for i, a := range q.Atoms {
		parts[i] = a.String()
	}
	name := q.Name
	if name == "" {
		name = "q"
	}
	return name + "(" + strings.Join(q.vars, ",") + ") :- " + strings.Join(parts, ", ")
}

// ConnectedComponents partitions the atom indices into the maximal connected
// subqueries of q. Two atoms are connected when they share a variable.
// Atoms with no variables (nullary) each form their own component.
func (q *Query) ConnectedComponents() [][]int {
	n := len(q.Atoms)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y int) { parent[find(x)] = find(y) }

	byVar := make(map[string]int) // variable -> first atom index seen
	for j, a := range q.Atoms {
		for _, v := range a.Vars {
			if first, ok := byVar[v]; ok {
				union(first, j)
			} else {
				byVar[v] = j
			}
		}
	}
	groups := make(map[int][]int)
	for j := range q.Atoms {
		r := find(j)
		groups[r] = append(groups[r], j)
	}
	roots := make([]int, 0, len(groups))
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	out := make([][]int, 0, len(groups))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// NumComponents returns c, the number of connected components.
func (q *Query) NumComponents() int { return len(q.ConnectedComponents()) }

// IsConnected reports whether the hypergraph of q is connected.
func (q *Query) IsConnected() bool { return len(q.Atoms) > 0 && q.NumComponents() == 1 }

// Characteristic returns χ(q) = a − k − ℓ + c (Section 2.2). By Lemma 2.1,
// χ(q) ≥ 0 for every query.
func (q *Query) Characteristic() int {
	return q.TotalArity() - q.NumVars() - q.NumAtoms() + q.NumComponents()
}

// IsTreeLike reports whether q is connected and χ(q) = 0 (Definition 2.2).
// Over binary vocabularies this holds exactly when the hypergraph is a tree.
func (q *Query) IsTreeLike() bool { return q.IsConnected() && q.Characteristic() == 0 }

// Subquery returns the query induced by the given atom indices, preserving
// order. The head of the subquery is the set of variables occurring in it.
func (q *Query) Subquery(name string, atomIdx []int) *Query {
	atoms := make([]Atom, 0, len(atomIdx))
	for _, j := range atomIdx {
		atoms = append(atoms, q.Atoms[j])
	}
	return New(name, atoms...)
}

// Contract returns q/M, the query resulting from contracting the atoms with
// indices in m in the hypergraph of q (Section 2.2): all variables of each
// connected component of M are merged into a single variable, and the atoms
// of M are removed. Variables are renamed to the representative (the first
// variable of the merged class in Vars() order).
func (q *Query) Contract(m []int) *Query {
	inM := make(map[int]bool, len(m))
	for _, j := range m {
		inM[j] = true
	}
	// Union-find over variables, merging within each contracted atom.
	parent := make(map[string]string, len(q.vars))
	for _, v := range q.vars {
		parent[v] = v
	}
	var find func(string) string
	find = func(x string) string {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(x, y string) {
		rx, ry := find(x), find(y)
		if rx == ry {
			return
		}
		// Keep the variable that appears earlier in Vars() as representative.
		if q.varIndex[rx] < q.varIndex[ry] {
			parent[ry] = rx
		} else {
			parent[rx] = ry
		}
	}
	for j, a := range q.Atoms {
		if !inM[j] {
			continue
		}
		dv := a.DistinctVars()
		for i := 1; i < len(dv); i++ {
			union(dv[0], dv[i])
		}
	}
	var atoms []Atom
	for j, a := range q.Atoms {
		if inM[j] {
			continue
		}
		vars := make([]string, len(a.Vars))
		for i, v := range a.Vars {
			vars[i] = find(v)
		}
		atoms = append(atoms, Atom{Name: a.Name, Vars: vars})
	}
	return New(q.Name+"/M", atoms...)
}

// varAdjacency builds the variable adjacency lists of the hypergraph:
// two variables are adjacent when they co-occur in an atom.
func (q *Query) varAdjacency() map[string][]string {
	adj := make(map[string]map[string]bool, len(q.vars))
	for _, v := range q.vars {
		adj[v] = make(map[string]bool)
	}
	for _, a := range q.Atoms {
		dv := a.DistinctVars()
		for i := 0; i < len(dv); i++ {
			for j := i + 1; j < len(dv); j++ {
				adj[dv[i]][dv[j]] = true
				adj[dv[j]][dv[i]] = true
			}
		}
	}
	out := make(map[string][]string, len(adj))
	for v, set := range adj {
		lst := make([]string, 0, len(set))
		for w := range set {
			lst = append(lst, w)
		}
		sort.Strings(lst)
		out[v] = lst
	}
	return out
}

// Distances returns the BFS distances from variable v to every variable of q
// in the hypergraph (d(u,v) of Section 5.1). Unreachable variables are
// absent from the map.
func (q *Query) Distances(v string) map[string]int {
	adj := q.varAdjacency()
	dist := map[string]int{v: 0}
	queue := []string{v}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range adj[u] {
			if _, ok := dist[w]; !ok {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Radius returns rad(q) = min_u max_v d(u,v) over variables of q.
// It panics if q is not connected (distances are infinite).
func (q *Query) Radius() int {
	if !q.IsConnected() {
		panic("query: radius of a disconnected query is infinite")
	}
	best := -1
	for _, u := range q.vars {
		ecc := q.eccentricity(u)
		if best < 0 || ecc < best {
			best = ecc
		}
	}
	return best
}

// Diameter returns diam(q) = max_{u,v} d(u,v). It panics if q is not
// connected.
func (q *Query) Diameter() int {
	if !q.IsConnected() {
		panic("query: diameter of a disconnected query is infinite")
	}
	best := 0
	for _, u := range q.vars {
		if ecc := q.eccentricity(u); ecc > best {
			best = ecc
		}
	}
	return best
}

func (q *Query) eccentricity(u string) int {
	dist := q.Distances(u)
	if len(dist) != len(q.vars) {
		panic("query: eccentricity on disconnected query")
	}
	ecc := 0
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Clone returns a deep copy of q.
func (q *Query) Clone() *Query {
	atoms := make([]Atom, len(q.Atoms))
	for i, a := range q.Atoms {
		atoms[i] = Atom{Name: a.Name, Vars: append([]string(nil), a.Vars...)}
	}
	return New(q.Name, atoms...)
}

// SameShape reports whether q and other have identical atom names, arities,
// and variable-equality pattern up to a renaming of variables — the check a
// planner uses to recognize a query family instance (e.g. "is this L_k?")
// regardless of how the caller named the variables.
func (q *Query) SameShape(other *Query) bool {
	if other == nil || len(q.Atoms) != len(other.Atoms) {
		return false
	}
	rename := make(map[string]string, len(q.vars))
	seen := make(map[string]bool, len(q.vars))
	for i, a := range q.Atoms {
		b := other.Atoms[i]
		if a.Name != b.Name || len(a.Vars) != len(b.Vars) {
			return false
		}
		for c, v := range a.Vars {
			w := b.Vars[c]
			if r, ok := rename[v]; ok {
				if r != w {
					return false
				}
				continue
			}
			if seen[w] {
				return false // w already the image of a different variable
			}
			rename[v] = w
			seen[w] = true
		}
	}
	return true
}
