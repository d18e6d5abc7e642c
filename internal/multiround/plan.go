// Package multiround implements Section 5: multi-round MPC computation of
// conjunctive queries. A query plan is a tree whose internal nodes are
// subqueries computable in one round with load O(M/p^{1−ε}) (members of
// Γ¹ε, i.e. τ* ≤ 1/(1−ε)); the plan's height is the number of rounds
// (Proposition 5.1). The package provides plan builders (chains per
// Example 5.2, the generic greedy grouping achieving the Lemma 5.4 bound on
// the paper's query families), an executor that runs plans on the MPC
// engine with per-round load metering, the (ε,r)-plan lower-bound
// machinery of Definition 5.5, and the connected-components algorithms
// discussed around Theorem 5.20.
package multiround

import (
	"fmt"
	"strings"

	"mpcquery/internal/bounds"
	"mpcquery/internal/query"
)

// Node is one vertex of a query plan tree. A leaf references a base
// relation; an internal node computes a full conjunctive query whose atoms
// are its children's outputs.
type Node struct {
	Name     string       // output view name (base relation name for leaves)
	Query    *query.Query // nil for leaves; atoms reference children by Name
	Children []*Node
}

// IsLeaf reports whether the node is a base relation.
func (n *Node) IsLeaf() bool { return n.Query == nil }

// Depth returns the number of rounds needed below and including this node:
// leaves take 0 rounds; an internal node takes 1 + max over children.
func (n *Node) Depth() int {
	if n.IsLeaf() {
		return 0
	}
	d := 0
	for _, c := range n.Children {
		if cd := c.Depth(); cd > d {
			d = cd
		}
	}
	return d + 1
}

func (n *Node) String() string {
	var b strings.Builder
	n.describe(&b, 0)
	return b.String()
}

func (n *Node) describe(b *strings.Builder, indent int) {
	pad := strings.Repeat("  ", indent)
	if n.IsLeaf() {
		fmt.Fprintf(b, "%sscan %s\n", pad, n.Name)
		return
	}
	fmt.Fprintf(b, "%s%s := %s\n", pad, n.Name, n.Query)
	for _, c := range n.Children {
		c.describe(b, indent+1)
	}
}

// Plan is a complete multi-round plan for a query.
type Plan struct {
	Root *Node
	Eps  float64
}

// Rounds returns the number of communication rounds the plan uses.
func (p *Plan) Rounds() int { return p.Root.Depth() }

func (p *Plan) String() string {
	return fmt.Sprintf("plan (ε=%.2f, %d rounds):\n%s", p.Eps, p.Rounds(), p.Root)
}

// viewNamer hands out view names V1, V2, … scoped to one plan construction.
// Scoping the counter (instead of a package global) keeps GreedyPlan
// deterministic — the same query always yields the same plan, names
// included — and race-free when plans are built from concurrent Runs.
type viewNamer int

func (v *viewNamer) fresh() string {
	*v++
	return fmt.Sprintf("V%d", *v)
}

// leaf returns a leaf node for a base atom.
func leaf(name string) *Node { return &Node{Name: name} }

// GreedyPlan builds a plan for any connected query by repeatedly grouping
// adjacent atoms into connected subqueries with τ* ≤ 1/(1−ε) (members of
// Γ¹ε), replacing each group by a view over the union of its variables, and
// recursing. On chains it produces the optimal ⌈log_kε k⌉-round plan of
// Example 5.2; on SP_k the 2-round plan of Example 5.3.
func GreedyPlan(q *query.Query, eps float64) *Plan {
	if !q.IsConnected() {
		panic("multiround: GreedyPlan requires a connected query")
	}
	nodes := make([]*Node, q.NumAtoms())
	for j, a := range q.Atoms {
		nodes[j] = leaf(a.Name)
	}
	var views viewNamer
	cur := q.Clone()
	for !bounds.InGammaOne(cur, eps) {
		groups := groupAtoms(cur, eps)
		if len(groups) == cur.NumAtoms() {
			panic(fmt.Sprintf("multiround: no progress planning %s at ε=%v", q, eps))
		}
		var nextAtoms []query.Atom
		var nextNodes []*Node
		for _, g := range groups {
			if len(g) == 1 {
				// Single-atom group: pass the child through unchanged.
				nextAtoms = append(nextAtoms, cur.Atoms[g[0]])
				nextNodes = append(nextNodes, nodes[g[0]])
				continue
			}
			sub := cur.Subquery(views.fresh(), g)
			children := make([]*Node, len(g))
			for i, j := range g {
				children[i] = nodes[j]
			}
			node := &Node{Name: sub.Name, Query: sub, Children: children}
			nextAtoms = append(nextAtoms, query.Atom{Name: sub.Name, Vars: sub.Vars()})
			nextNodes = append(nextNodes, node)
		}
		cur = query.New(cur.Name, nextAtoms...)
		nodes = nextNodes
	}
	var root *Node
	if len(nodes) == 1 && !nodes[0].IsLeaf() && sameVars(nodes[0].Query, q) {
		root = nodes[0]
	} else {
		children := nodes
		rq := query.New(q.Name, cur.Atoms...)
		root = &Node{Name: q.Name, Query: rq, Children: children}
	}
	return &Plan{Root: root, Eps: eps}
}

func sameVars(a, b *query.Query) bool {
	if a.NumVars() != b.NumVars() {
		return false
	}
	for _, v := range a.Vars() {
		if b.VarIndex(v) < 0 {
			return false
		}
	}
	return true
}

// groupAtoms greedily partitions the atoms of q into connected groups, each
// in Γ¹ε, preferring runs of adjacent atoms in declaration order (which is
// optimal for chains and cycles, whose builders declare atoms along the
// walk).
func groupAtoms(q *query.Query, eps float64) [][]int {
	n := q.NumAtoms()
	assigned := make([]bool, n)
	var groups [][]int
	for start := 0; start < n; start++ {
		if assigned[start] {
			continue
		}
		group := []int{start}
		assigned[start] = true
		for {
			extended := false
			for j := 0; j < n; j++ {
				if assigned[j] {
					continue
				}
				if !adjacent(q, group, j) {
					continue
				}
				candidate := append(append([]int(nil), group...), j)
				sub := q.Subquery("g", candidate)
				if sub.IsConnected() && bounds.InGammaOne(sub, eps) {
					group = candidate
					assigned[j] = true
					extended = true
					break
				}
			}
			if !extended {
				break
			}
		}
		groups = append(groups, group)
	}
	return groups
}

func adjacent(q *query.Query, group []int, j int) bool {
	for _, g := range group {
		for _, v := range q.Atoms[g].DistinctVars() {
			if q.Atoms[j].HasVar(v) {
				return true
			}
		}
	}
	return false
}

// ChainPlan builds the Example 5.2 plan for L_k at space exponent ε:
// consecutive runs of kε atoms per level, depth ⌈log_kε k⌉.
func ChainPlan(k int, eps float64) *Plan {
	return GreedyPlan(query.Chain(k), eps)
}

// CyclePlan builds a plan for C_k at space exponent ε via the greedy
// grouping (runs of kε atoms leave a shorter cycle, until the remaining
// cycle fits in one round).
func CyclePlan(k int, eps float64) *Plan {
	return GreedyPlan(query.Cycle(k), eps)
}
