package mpcquery_test

import (
	"fmt"

	"mpcquery"
)

// ExampleTauStar computes the fractional vertex covering number of the
// Table 2 families.
func ExampleTauStar() {
	for _, q := range []*mpcquery.Query{
		mpcquery.Triangle(), mpcquery.Chain(5), mpcquery.Star(7),
	} {
		tau, _ := mpcquery.TauStar(q)
		fmt.Printf("%s: τ* = %g\n", q.Name, tau)
	}
	// Output:
	// C3: τ* = 1.5
	// L5: τ* = 3
	// T7: τ* = 1
}

// ExampleParseQuery parses datalog-like notation and inspects the
// hypergraph.
func ExampleParseQuery() {
	q, err := mpcquery.ParseQuery("q(x,y,z) :- R(x,y), S(y,z), T(z,x)")
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("atoms:", q.NumAtoms())
	fmt.Println("tree-like:", q.IsTreeLike())
	fmt.Println("acyclic:", q.IsAcyclic())
	fmt.Printf("χ(q) = %d\n", q.Characteristic())
	// Output:
	// atoms: 3
	// tree-like: false
	// acyclic: false
	// χ(q) = 1
}

// ExampleAdvise prints the rounds/load tradeoff for L4.
func ExampleAdvise() {
	q := mpcquery.Chain(4)
	M := []float64{1 << 20, 1 << 20, 1 << 20, 1 << 20}
	for _, o := range mpcquery.Advise(q, M, 64) {
		fmt.Printf("%d round(s): %s\n", o.Rounds, o.Name)
	}
	// Output:
	// 1 round(s): 1-round HyperCube (LP 10)
	// 1 round(s): 1-round HyperCube, skew-oblivious (LP 18)
	// 2 round(s): 2-round plan (ε=0.00)
}
