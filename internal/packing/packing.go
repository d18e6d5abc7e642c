// Package packing computes the fractional edge packings, vertex covers and
// share exponents at the heart of the paper's one-round bounds (Sections 2.2,
// 3.1 and 3.3):
//
//   - τ*(q), the fractional vertex covering number (= max fractional edge
//     packing by LP duality);
//   - ρ*(q), the fractional edge cover number;
//   - the extreme points pk(q) of the edge packing polytope;
//   - the share exponents of the HyperCube algorithm via LP (10), and the
//     skew-oblivious variant via LP (18).
package packing

import (
	"fmt"
	"math"
	"sort"

	"mpcquery/internal/lp"
	"mpcquery/internal/query"
)

// TauStar returns τ*(q) together with an optimal fractional edge packing u
// (one weight per atom): maximize Σ uj subject to, for every variable x,
// Σ_{j: x ∈ Sj} uj ≤ 1.
func TauStar(q *query.Query) (float64, []float64) {
	l := q.NumAtoms()
	obj := make([]float64, l)
	for j := range obj {
		obj[j] = 1
	}
	p := &lp.Problem{NumVars: l, Objective: obj, Maximize: true}
	addPackingConstraints(p, q)
	s := lp.Solve(p)
	if s.Status != lp.Optimal {
		panic(fmt.Sprintf("packing: edge packing LP %v for %s", s.Status, q))
	}
	return s.Value, s.X
}

func addPackingConstraints(p *lp.Problem, q *query.Query) {
	for _, v := range q.Vars() {
		row := make([]float64, q.NumAtoms())
		for _, j := range q.AtomsOf(v) {
			row[j] = 1
		}
		p.Constraints = append(p.Constraints, lp.Constraint{Coeffs: row, Op: lp.LE, RHS: 1})
	}
}

// VertexCover returns the fractional vertex covering number (equal to τ* by
// duality) with an optimal fractional vertex cover v (one weight per
// variable): minimize Σ vi subject to, for every atom Sj, Σ_{i ∈ Sj} vi ≥ 1.
func VertexCover(q *query.Query) (float64, []float64) {
	k := q.NumVars()
	obj := make([]float64, k)
	for i := range obj {
		obj[i] = 1
	}
	p := &lp.Problem{NumVars: k, Objective: obj}
	for _, a := range q.Atoms {
		row := make([]float64, k)
		for _, v := range a.DistinctVars() {
			row[q.VarIndex(v)] = 1
		}
		p.Constraints = append(p.Constraints, lp.Constraint{Coeffs: row, Op: lp.GE, RHS: 1})
	}
	s := lp.Solve(p)
	if s.Status != lp.Optimal {
		panic(fmt.Sprintf("packing: vertex cover LP %v for %s", s.Status, q))
	}
	return s.Value, s.X
}

// RhoStar returns the fractional edge cover number ρ*(q) with an optimal
// fractional edge cover: minimize Σ uj subject to, for every variable x,
// Σ_{j: x ∈ Sj} uj ≥ 1.
func RhoStar(q *query.Query) (float64, []float64) {
	l := q.NumAtoms()
	obj := make([]float64, l)
	for j := range obj {
		obj[j] = 1
	}
	p := &lp.Problem{NumVars: l, Objective: obj}
	for _, v := range q.Vars() {
		row := make([]float64, l)
		for _, j := range q.AtomsOf(v) {
			row[j] = 1
		}
		p.Constraints = append(p.Constraints, lp.Constraint{Coeffs: row, Op: lp.GE, RHS: 1})
	}
	s := lp.Solve(p)
	if s.Status != lp.Optimal {
		panic(fmt.Sprintf("packing: edge cover LP %v for %s", s.Status, q))
	}
	return s.Value, s.X
}

// IsPacking reports whether u is a feasible fractional edge packing of q
// (within tolerance tol).
func IsPacking(q *query.Query, u []float64, tol float64) bool {
	if len(u) != q.NumAtoms() {
		return false
	}
	for _, w := range u {
		if w < -tol {
			return false
		}
	}
	for _, v := range q.Vars() {
		sum := 0.0
		for _, j := range q.AtomsOf(v) {
			sum += u[j]
		}
		if sum > 1+tol {
			return false
		}
	}
	return true
}

// Vertices enumerates the extreme points pk(q) of the fractional edge
// packing polytope of q (Section 3.3). Each vertex is obtained by choosing
// ℓ of the k+ℓ defining inequalities to hold with equality and solving the
// square system; infeasible or duplicate solutions are discarded.
func Vertices(q *query.Query) [][]float64 {
	l := q.NumAtoms()
	// Build constraint rows: first k variable constraints (≤ 1), then ℓ
	// non-negativity constraints (uj ≥ 0, i.e. tight means uj = 0).
	type row struct {
		coeffs []float64
		rhs    float64
	}
	var rows []row
	for _, v := range q.Vars() {
		r := row{coeffs: make([]float64, l), rhs: 1}
		for _, j := range q.AtomsOf(v) {
			r.coeffs[j] = 1
		}
		rows = append(rows, r)
	}
	for j := 0; j < l; j++ {
		r := row{coeffs: make([]float64, l), rhs: 0}
		r.coeffs[j] = 1
		rows = append(rows, r)
	}

	seen := make(map[string]bool)
	var out [][]float64
	idx := make([]int, l)
	var rec func(start, d int)
	rec = func(start, d int) {
		if d == l {
			a := make([][]float64, l)
			b := make([]float64, l)
			for i, ri := range idx {
				a[i] = rows[ri].coeffs
				b[i] = rows[ri].rhs
			}
			u, ok := lp.SolveSquare(a, b)
			if !ok {
				return
			}
			if !IsPacking(q, u, 1e-7) {
				return
			}
			key := vertexKey(u)
			if !seen[key] {
				seen[key] = true
				out = append(out, clean(u))
			}
			return
		}
		for i := start; i < len(rows); i++ {
			idx[d] = i
			rec(i+1, d+1)
		}
	}
	rec(0, 0)
	sortVertices(out)
	return out
}

func vertexKey(u []float64) string {
	key := ""
	for _, w := range u {
		key += fmt.Sprintf("%.7f,", w+0) // +0 normalizes -0
	}
	return key
}

// clean snaps nearly-integral and tiny coordinates to exact values.
func clean(u []float64) []float64 {
	out := make([]float64, len(u))
	for i, w := range u {
		r := math.Round(w*2) / 2 // most packing vertices are half-integral
		if math.Abs(w-r) < 1e-7 {
			w = r
		}
		if w == 0 { // normalize -0
			w = 0
		}
		out[i] = w
	}
	return out
}

func sortVertices(vs [][]float64) {
	sort.Slice(vs, func(i, j int) bool {
		si, sj := sum(vs[i]), sum(vs[j])
		if math.Abs(si-sj) > 1e-9 {
			return si > sj
		}
		for t := range vs[i] {
			if math.Abs(vs[i][t]-vs[j][t]) > 1e-9 {
				return vs[i][t] > vs[j][t]
			}
		}
		return false
	})
}

func sum(u []float64) float64 {
	s := 0.0
	for _, w := range u {
		s += w
	}
	return s
}
