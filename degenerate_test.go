package mpcquery

import (
	"fmt"
	"math"
	"testing"

	"mpcquery/internal/oracle"
)

// The degenerate-input suite: empty relations, a single server, and
// all-duplicate tuples must never produce NaN/Inf/panic in any strategy
// family's report — including the aggregate paths and their bits
// accounting. These are exactly the inputs where ratio fields
// (ReplicationRate = TotalBits/InputBits, LoadRatio = observed/predicted)
// can divide by zero if unguarded.

// degenerateDBs builds the pathological databases for a query.
func degenerateDBs(q *Query) map[string]*Database {
	empty := NewDatabase(1 << 8)
	for _, a := range q.Atoms {
		empty.Add(NewRelation(a.Name, a.Arity()))
	}
	oneEmpty := NewDatabase(1 << 8)
	for j, a := range q.Atoms {
		r := NewRelation(a.Name, a.Arity())
		if j > 0 {
			row := make([]int64, a.Arity())
			for c := range row {
				row[c] = int64(c + 1)
			}
			for i := 0; i < 20; i++ {
				r.AppendTuple(row)
			}
		}
		oneEmpty.Add(r)
	}
	allDup := NewDatabase(1 << 8)
	for _, a := range q.Atoms {
		r := NewRelation(a.Name, a.Arity())
		row := make([]int64, a.Arity())
		for c := range row {
			row[c] = 3 // every column the same single value, 30 copies
		}
		for i := 0; i < 30; i++ {
			r.AppendTuple(row)
		}
		allDup.Add(r)
	}
	tiny := NewDatabase(2) // domain of two values: 1-bit encoding
	for _, a := range q.Atoms {
		r := NewRelation(a.Name, a.Arity())
		row := make([]int64, a.Arity())
		r.AppendTuple(row)
		tiny.Add(r)
	}
	return map[string]*Database{
		"all-empty": empty, "one-empty": oneEmpty, "all-duplicates": allDup, "tiny-domain": tiny,
	}
}

func checkFinite(t *testing.T, label string, rep *Report) {
	t.Helper()
	fields := map[string]float64{
		"MaxLoadBits":        rep.MaxLoadBits,
		"TotalBits":          rep.TotalBits,
		"InputBits":          rep.InputBits,
		"ReplicationRate":    rep.ReplicationRate,
		"PredictedLoadBits":  rep.PredictedLoadBits,
		"LoadRatio":          rep.LoadRatio(),
		"AggregateBitsSaved": rep.AggregateBitsSaved,
	}
	for name, v := range fields {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: %s = %v", label, name, v)
		}
		if name != "LoadRatio" && v < 0 {
			t.Errorf("%s: %s negative: %v", label, name, v)
		}
	}
	for _, rs := range rep.RoundStats {
		if math.IsNaN(rs.MaxLoadBits) || math.IsInf(rs.MaxLoadBits, 0) {
			t.Errorf("%s: round %d load = %v", label, rs.Round, rs.MaxLoadBits)
		}
	}
	// String and Fingerprint must render without panicking.
	_ = rep.String()
	_ = rep.Fingerprint()
}

func degenerateStrategiesFor(q *Query) []Strategy {
	ss := []Strategy{HyperCube(), HyperCubeOblivious(), SkewedGeneric(), GreedyPlan(0.5), GreedyPlanSkewAware(0.5), Auto()}
	if isStarQuery(q) {
		ss = append(ss, SkewedStar(), SkewedStarSampled(10))
	}
	if q.NumAtoms() == 3 && q.NumVars() == 3 {
		ss = append(ss, SkewedTriangle())
	}
	if Chain(q.NumAtoms()).SameShape(q) {
		ss = append(ss, ChainPlan(0.5))
	}
	return ss
}

func TestDegenerateInputsAcrossFamilies(t *testing.T) {
	for _, q := range []*Query{Star(2), Triangle(), Chain(3)} {
		for dbName, db := range degenerateDBs(q) {
			for _, s := range degenerateStrategiesFor(q) {
				for _, servers := range []int{1, 16} {
					label := fmt.Sprintf("%s/%s/%s/p%d", q.Name, dbName, s.Name(), servers)
					rep, err := Run(q, db, WithStrategy(s), WithServers(servers), WithSeed(1))
					if err != nil {
						t.Errorf("%s: %v", label, err)
						continue
					}
					checkFinite(t, label, rep)
				}
			}
		}
	}
}

func TestDegenerateAggregates(t *testing.T) {
	for _, q := range []*Query{Star(2), Chain(3)} {
		groupVar := q.Vars()[0]
		aggVar := q.Vars()[len(q.Vars())-1]
		specs := []AggregateQuery{
			{Join: q, Op: AggCount, GroupBy: []string{groupVar}},
			{Join: q, Op: AggCount},
			{Join: q, Op: AggSum, Of: aggVar, GroupBy: []string{groupVar}},
			{Join: q, Op: AggMin, Of: aggVar},
			{Join: q, Op: AggMax, Of: aggVar, GroupBy: []string{groupVar}},
		}
		strategies := []Strategy{HyperCube(), GreedyPlan(0.5)}
		if Chain(q.NumAtoms()).SameShape(q) {
			strategies = append(strategies, ChainPlan(0.5))
		}
		for dbName, db := range degenerateDBs(q) {
			for _, aq := range specs {
				for _, s := range strategies {
					for _, pushdown := range []bool{true, false} {
						for _, servers := range []int{1, 16} {
							label := fmt.Sprintf("%s/%s/%s/%v/p%d/push%t", q.Name, dbName, s.Name(), aq.Op, servers, pushdown)
							rep, err := RunAggregate(aq, db, WithStrategy(s), WithServers(servers),
								WithSeed(1), WithAggregatePushdown(pushdown))
							if err != nil {
								t.Errorf("%s: %v", label, err)
								continue
							}
							checkFinite(t, label, rep)
							// Empty joins must yield empty aggregates, never a
							// zero-group row; all-duplicate joins exactly one
							// group per distinct key.
							if dbName == "all-empty" || dbName == "one-empty" {
								if rep.Output.NumTuples() != 0 {
									t.Errorf("%s: empty join produced %d aggregate rows", label, rep.Output.NumTuples())
								}
							}
							if dbName == "all-duplicates" && rep.Output.NumTuples() > 1 {
								t.Errorf("%s: single-key input produced %d groups", label, rep.Output.NumTuples())
							}
						}
					}
				}
			}
		}
	}
}

// TestDegenerateSingleServerMatchesOracleCounts pins the all-duplicates
// COUNT value: with every relation holding c copies of one tuple, the join
// has c^ℓ rows, so the global count must be exactly that — on one server and
// on many, pushdown on and off.
func TestDegenerateAllDuplicateCounts(t *testing.T) {
	q := Star(2)
	db := degenerateDBs(q)["all-duplicates"]
	want := int64(30 * 30)
	for _, servers := range []int{1, 16} {
		for _, pushdown := range []bool{true, false} {
			rep, err := RunAggregate(AggregateQuery{Join: q, Op: AggCount}, db,
				WithServers(servers), WithSeed(2), WithAggregatePushdown(pushdown))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Output.NumTuples() != 1 || rep.Output.At(0, 0) != want {
				t.Fatalf("p=%d pushdown=%t: count = %v, want single row %d",
					servers, pushdown, rep.Output.Vals(), want)
			}
		}
	}
}

// TestDenseBipartiteTriangle makes every relation of C3 the complete 8×8
// bipartite graph on its own value blocks (192 tuples). At p = 512 every
// value reaches its heavy cut (degree 8 = m/8 on the 8×8×8 skew-free grid),
// so Π_v(1+16) = 4913 patterns would exceed the planner's 4096: it must keep
// the heaviest values that fit, treat the rest as light, and stay correct.
func TestDenseBipartiteTriangle(t *testing.T) {
	q := Triangle()
	db := NewDatabase(1 << 8)
	for j, a := range q.Atoms {
		r := NewRelation(a.Name, 2)
		for x := int64(0); x < 8; x++ {
			for y := int64(0); y < 8; y++ {
				r.Append(int64(16*j)+x, int64(16*j+8)+y)
			}
		}
		db.Add(r)
	}
	want := oracle.Evaluate(q, db)
	for _, p := range []int{64, 512} {
		for _, s := range []Strategy{SkewedTriangle(), SkewedGeneric()} {
			rep, err := Run(q, db, WithStrategy(s), WithServers(p))
			if err != nil {
				t.Fatalf("%s at p=%d: %v", s.Name(), p, err)
			}
			if !EqualRelations(rep.Output, want) {
				t.Errorf("%s at p=%d: output (%d tuples) differs from oracle (%d tuples)",
					s.Name(), p, rep.Output.NumTuples(), want.NumTuples())
			}
			t.Logf("%s at p=%d: %d heavy, %d servers", s.Name(), p, rep.HeavyHitters, rep.ServersUsed)
		}
	}
}
