package localjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/localjoin/baseline"
	"mpcquery/internal/query"
)

// decodeOrderInput reads a query and its relations from fuzz bytes: the
// number of atoms (1–4), per atom its arity (1–3) and variables (from a pool
// of five, so repeated and shared variables are common), the stream window
// (1–16 rows), then per atom a tuple count (< 16) and the tuples' values over
// -3…4. Bytes past the end read as 0.
func decodeOrderInput(in []byte) (q *query.Query, rels map[string]*data.Relation, window int) {
	pos := 0
	next := func() int {
		b := 0
		if pos < len(in) {
			b = int(in[pos])
		}
		pos++
		return b
	}
	pool := []string{"x", "y", "z", "u", "v"}
	atoms := make([]query.Atom, 1+next()%4)
	for j := range atoms {
		vars := make([]string, 1+next()%3)
		for c := range vars {
			vars[c] = pool[next()%len(pool)]
		}
		atoms[j] = query.Atom{Name: fmt.Sprintf("S%d", j+1), Vars: vars}
	}
	q = query.New("q", atoms...)
	window = 1 + next()%16
	rels = make(map[string]*data.Relation, len(atoms))
	for _, a := range atoms {
		r := data.NewRelation(a.Name, a.Arity())
		row := make([]int64, a.Arity())
		for n := next() % 16; n > 0; n-- {
			for c := range row {
				row[c] = int64(next()&7) - 3
			}
			r.AppendTuple(row)
		}
		rels[a.Name] = r
	}
	return q, rels, window
}

// orderSeed encodes a query for decodeOrderInput — atoms as lists of
// variable indices into its pool — with window and tuple counts of 12 per
// atom, whose values a fixed generator draws.
func orderSeed(window int, atoms ...[]byte) []byte {
	in := []byte{byte(len(atoms) - 1)}
	for _, vars := range atoms {
		in = append(in, byte(len(vars)-1))
		in = append(in, vars...)
	}
	in = append(in, byte(window-1))
	rng := rand.New(rand.NewSource(int64(len(in))))
	for _, vars := range atoms {
		in = append(in, 12)
		for i := 0; i < 12*len(vars); i++ {
			in = append(in, byte(rng.Intn(4)))
		}
	}
	return in
}

// orderSeeds are FuzzKernelMatchesBaseline's seed corpus, one per kind of
// last join step (TestOrderSeedsCoverLastSteps checks each claim).
var orderSeeds = []struct {
	name string
	in   []byte
	// What the last step of the greedy order is: its key columns, the
	// variables it binds, whether it filters a repeated variable, and the
	// number of atoms.
	keys, fresh int
	repeated    bool
	atoms       int
}{
	{"one-key", orderSeed(3, []byte{0, 1}, []byte{1, 2}), 1, 1, false, 2},
	{"multi-key", orderSeed(5, []byte{0, 1}, []byte{1, 2}, []byte{2, 0}), 2, 0, false, 3},
	{"multi-key binding", orderSeed(4, []byte{0, 1}, []byte{0, 1, 2}), 2, 1, false, 2},
	{"cartesian", orderSeed(2, []byte{0}, []byte{1, 2}), 0, 2, false, 2},
	{"repeated variable", orderSeed(7, []byte{0, 1}, []byte{1, 2, 2}), 1, 1, true, 2},
	{"binds nothing", orderSeed(1, []byte{0, 1, 2}, []byte{2}), 1, 0, false, 2},
	{"single atom", orderSeed(6, []byte{0, 1, 0}), 0, 2, true, 1},
}

// TestOrderSeedsCoverLastSteps checks that each seed of
// FuzzKernelMatchesBaseline has the last join step its name says, so the
// fuzzer starts from every kind the kernel writes output rows from.
func TestOrderSeedsCoverLastSteps(t *testing.T) {
	for _, sd := range orderSeeds {
		q, rels, _ := decodeOrderInput(sd.in)
		sc := NewScratch()
		byAtom := sc.byAtom(q, rels)
		steps := sc.planSteps(q, sc.greedyOrder(q, byAtom))
		last := steps[len(steps)-1]
		if len(steps) != sd.atoms || len(last.keyCols) != sd.keys || len(last.freshCols) != sd.fresh || (len(last.eqPairs) > 0) != sd.repeated {
			t.Errorf("%s: %s has %d steps, a last step with %d keys, %d fresh variables, %d repeated",
				sd.name, q, len(steps), len(last.keyCols), len(last.freshCols), len(last.eqPairs))
		}
		if baseline.Evaluate(q, rels).NumTuples() == 0 {
			t.Errorf("%s: %s has no output rows", sd.name, q)
		}
	}
}

// FuzzKernelMatchesBaseline holds every path that writes the kernel's output
// rows to the baseline evaluator, row for row and in order: Evaluate, the
// concatenated blocks of EvaluateAtomsStream at the decoded window, and
// Output over two servers that both hold every relation (the baseline's rows
// twice, in server order). One scratch serves every input, as a worker's
// scratch serves every server of a phase.
func FuzzKernelMatchesBaseline(f *testing.F) {
	for _, sd := range orderSeeds {
		f.Add(sd.in)
	}
	sc := NewScratch()
	f.Fuzz(func(t *testing.T, in []byte) {
		q, rels, window := decodeOrderInput(in)
		want := baseline.Evaluate(q, rels)
		if got := sc.Evaluate(q, rels); !sameRelationExactly(got, want) {
			t.Fatalf("%s: Evaluate has %v, baseline %v", q, got.Vals(), want.Vals())
		}
		byAtom := sc.byAtom(q, rels)
		streamed := data.NewRelation(q.Name, q.NumVars())
		n := sc.EvaluateAtomsStream(q, byAtom, nil, window, func(vals []int64) {
			if len(vals) == 0 {
				t.Fatalf("%s: an empty block at window %d", q, window)
			}
			streamed.AppendVals(vals)
		})
		if n != want.NumTuples() || !sameRelationExactly(streamed, want) {
			t.Fatalf("%s window %d: streamed %d rows %v, baseline %v", q, window, n, streamed.Vals(), want.Vals())
		}

		c := engine.NewCluster(2, 32)
		defer c.Release()
		c.Round("seed", func(s int, _ *engine.Inbox, emit *engine.Emitter) {
			if s != 0 {
				return
			}
			for j, a := range q.Atoms {
				r := rels[a.Name]
				for i := 0; i < r.NumTuples(); i++ {
					emit.EmitTuple(0, j, r.Tuple(i))
					emit.EmitTuple(1, j, r.Tuple(i))
				}
			}
		})
		twice := data.NewRelation(q.Name, q.NumVars())
		twice.AppendVals(want.Vals())
		twice.AppendVals(want.Vals())
		if out, _ := Output(c, q, engine.Env{}, nil, nil); !sameRelationExactly(out, twice) {
			t.Fatalf("%s: Output has %v, baseline twice %v", q, out.Vals(), twice.Vals())
		}
	})
}
