// Package baseline preserves the pre-kernel local-join evaluator — string-
// keyed map indexes, a fresh row allocation per partial binding, per-call
// index builds — exactly as it shipped, as the reference implementation for
// the columnar kernel in the parent package. Equivalence tests pin the
// kernel's output (tuple-for-tuple, in order) against this evaluator, and
// the kernel ablation benchmarks measure speedup relative to it. It is
// frozen: fix bugs in the kernel, not here (a divergence IS the bug signal).
package baseline

import (
	"encoding/binary"

	"mpcquery/internal/data"
	"mpcquery/internal/query"
)

// Evaluate computes q over the given relations (one per atom name) and
// returns the full result, one column per variable in q.Vars() order.
// Duplicate output tuples are produced if the inputs are bags.
func Evaluate(q *query.Query, rels map[string]*data.Relation) *data.Relation {
	// A full conjunctive query needs every atom to contribute at least one
	// tuple; any empty input empties the join. Skew-aware layouts route
	// most servers nothing at all, so this fast path skips the ordering and
	// index allocations on the (typically many) empty servers of a round.
	for _, a := range q.Atoms {
		if rel := rels[a.Name]; rel != nil && rel.NumTuples() == 0 {
			return data.NewRelation(q.Name, q.NumVars())
		}
	}
	return EvaluateOrdered(q, rels, atomOrder(q, rels))
}

// EvaluateOrdered is Evaluate with an explicit atom join order (a
// permutation of atom indices). It exists for join-order ablations; the
// default greedy order of Evaluate is usually much faster on connected
// queries because every step stays bound to previous atoms.
func EvaluateOrdered(q *query.Query, rels map[string]*data.Relation, order []int) *data.Relation {
	vars := q.Vars()
	out := data.NewRelation(q.Name, len(vars))

	// bindings holds one row per partial match, columns indexed by varPos.
	varPos := make(map[string]int, len(vars))
	var bound []string
	bindings := [][]int64{{}} // one empty binding to start

	for _, ai := range order {
		atom := q.Atoms[ai]
		rel := rels[atom.Name]
		if rel == nil {
			panic("localjoin: missing relation " + atom.Name)
		}
		shared, fresh := splitVars(atom, varPos)
		idx := buildIndex(rel, atom, shared, varPos)

		var next [][]int64
		keyBuf := make([]byte, 8*len(shared))
		for _, b := range bindings {
			key := bindingKey(b, shared, varPos, keyBuf)
			for _, ti := range idx[key] {
				t := rel.Tuple(ti)
				row := make([]int64, len(b), len(b)+len(fresh))
				copy(row, b)
				ok := true
				for _, fv := range fresh {
					v, valid := atomValue(atom, t, fv.name)
					if !valid {
						ok = false
						break
					}
					row = append(row, v)
				}
				if ok {
					next = append(next, row)
				}
			}
		}
		for _, fv := range fresh {
			varPos[fv.name] = len(bound)
			bound = append(bound, fv.name)
		}
		bindings = next
		if len(bindings) == 0 {
			break
		}
	}

	// Emit rows in q.Vars() order.
	out.Grow(len(bindings))
	row := make([]int64, len(vars))
	for _, b := range bindings {
		for i, v := range vars {
			row[i] = b[varPos[v]]
		}
		out.AppendTuple(row)
	}
	return out
}

type freshVar struct {
	name string
	col  int // first column of the atom where it appears
}

// splitVars partitions the atom's distinct variables into those already
// bound (shared) and those introduced by this atom (fresh).
func splitVars(atom query.Atom, varPos map[string]int) (shared []string, fresh []freshVar) {
	seen := make(map[string]bool)
	for c, v := range atom.Vars {
		if seen[v] {
			continue
		}
		seen[v] = true
		if _, ok := varPos[v]; ok {
			shared = append(shared, v)
		} else {
			fresh = append(fresh, freshVar{name: v, col: c})
		}
	}
	return shared, fresh
}

// buildIndex hashes rel's tuples by the values of the shared variables,
// dropping tuples that are inconsistent on repeated variables.
func buildIndex(rel *data.Relation, atom query.Atom, shared []string, varPos map[string]int) map[string][]int {
	_ = varPos
	idx := make(map[string][]int)
	m := rel.NumTuples()
	keyBuf := make([]byte, 8*len(shared))
	for i := 0; i < m; i++ {
		t := rel.Tuple(i)
		if !selfConsistent(atom, t) {
			continue
		}
		k := 0
		for _, sv := range shared {
			v, _ := atomValue(atom, t, sv)
			binary.LittleEndian.PutUint64(keyBuf[k:], uint64(v))
			k += 8
		}
		key := string(keyBuf[:k])
		idx[key] = append(idx[key], i)
	}
	return idx
}

// selfConsistent checks that a tuple agrees with itself on repeated
// variables of the atom (S(x,x) matches only tuples with equal columns).
func selfConsistent(atom query.Atom, t []int64) bool {
	for i := 0; i < len(atom.Vars); i++ {
		for j := i + 1; j < len(atom.Vars); j++ {
			if atom.Vars[i] == atom.Vars[j] && t[i] != t[j] {
				return false
			}
		}
	}
	return true
}

// atomValue returns the value of variable v in tuple t under the atom's
// column layout.
func atomValue(atom query.Atom, t []int64, v string) (int64, bool) {
	for c, w := range atom.Vars {
		if w == v {
			return t[c], true
		}
	}
	return 0, false
}

func bindingKey(b []int64, shared []string, varPos map[string]int, buf []byte) string {
	k := 0
	for _, sv := range shared {
		binary.LittleEndian.PutUint64(buf[k:], uint64(b[varPos[sv]]))
		k += 8
	}
	return string(buf[:k])
}

// atomOrder picks the join order: start from the smallest relation, then
// repeatedly take the atom sharing the most variables with the bound set
// (ties: smaller relation), falling back to the smallest unjoined atom when
// none connects (cartesian product step).
func atomOrder(q *query.Query, rels map[string]*data.Relation) []int {
	n := q.NumAtoms()
	used := make([]bool, n)
	bound := make(map[string]bool)
	size := func(j int) int {
		if r := rels[q.Atoms[j].Name]; r != nil {
			return r.NumTuples()
		}
		return 0
	}
	sharedCount := func(j int) int {
		c := 0
		for _, v := range q.Atoms[j].DistinctVars() {
			if bound[v] {
				c++
			}
		}
		return c
	}
	var order []int
	for len(order) < n {
		best := -1
		bestShared, bestSize := -1, 0
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			sc := sharedCount(j)
			sz := size(j)
			if best < 0 || sc > bestShared || (sc == bestShared && sz < bestSize) {
				best, bestShared, bestSize = j, sc, sz
			}
		}
		used[best] = true
		order = append(order, best)
		for _, v := range q.Atoms[best].DistinctVars() {
			bound[v] = true
		}
	}
	return order
}
