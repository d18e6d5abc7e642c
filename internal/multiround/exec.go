package multiround

import (
	"fmt"

	"mpcquery/internal/aggregate"
	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/skew"
)

// Memo is an optional per-node artifact memoizer supplied by a caching
// caller (the query service). It must return the value computed by an
// earlier call with the same key, or run compute and return its result. The
// per-node artifacts memoized here (HyperCube plans, skew layouts for the
// intermediate views) are deterministic in (plan, database, servers, seed),
// which the caller encodes in the key prefix; a nil Memo recomputes
// everything, and both paths execute identically.
type Memo func(key string, compute func() any) any

func (m Memo) do(key string, compute func() any) any {
	if m == nil {
		return compute()
	}
	return m(key, compute)
}

// Execute runs the plan on db with a budget of p servers per round. Nodes
// at the same depth execute in the same communication round, splitting the
// p servers evenly; the round's load is the maximum over its nodes, and the
// plan's load L is the maximum over rounds — exactly the model's metric.
func Execute(p *Plan, db *data.Database, servers int, seed int64) *engine.RunRecord {
	return ExecuteAggregateCapMemoNet(p, db, servers, seed, 0, nil, nil, engine.Env{})
}

// ExecuteAggregateCapMemoNet is Execute with every option of the vanilla
// executor:
//
//   - capBits is a declared per-round load cap in bits (0 = none): every
//     node of every round runs under the cap, and the record's Aborted
//     reports whether any of them exceeded it;
//   - agg is an optional aggregate computed at the root node: intermediate
//     views stay full joins (later rounds need every binding), and the root
//     runs core.RunPlanAggregateNet with it — its aggregate-shuffle round
//     follows the root's round in the plan's record. A nil agg executes the
//     plain plan;
//   - per-node HyperCube plans are drawn from memo: every node of every
//     round needs a share-LP solve over its intermediate views, and a
//     service replaying the same multi-round query can reuse them all;
//   - every node's round delivery goes through env (the zero Env =
//     in-process, untraced). Nodes execute sequentially, so a distributed
//     run attaches one cluster at a time, in the same deterministic order at
//     every rank. Only the root node streams into env.Sink: intermediate
//     views feed later rounds and always materialize.
func ExecuteAggregateCapMemoNet(p *Plan, db *data.Database, servers int, seed int64, capBits float64, agg *aggregate.Plan, memo Memo, env engine.Env) *engine.RunRecord {
	aggAt := func(n *Node) *aggregate.Plan {
		if n == p.Root {
			return agg
		}
		return nil
	}
	return executeWith(p, db, servers, env, func(n *Node, sub *data.Database, perNode, d int, env engine.Env) *engine.RunRecord {
		pl := memo.do(fmt.Sprintf("node|%s|d%d|pn%d|s%d", n.Name, d, perNode, seed), func() any {
			return core.PlanForDatabase(n.Query, sub, perNode, core.SkewFree)
		}).(*core.Plan)
		return core.RunPlanAggregateNet(pl, sub, seed+int64(d), capBits, aggAt(n), env)
	})
}

// executeWith runs the plan with a pluggable one-round operator, level by
// level: the records of one level's nodes, which share its rounds on disjoint
// servers, merge Beside each other, and each level's record follows the
// previous one's. The operator runs every node under env, with the sink
// handed only to the root: the plan's record then has a nil Output. The
// plan's record spans the servers budget and the whole database's input.
func executeWith(p *Plan, db *data.Database, servers int, env engine.Env,
	operator func(n *Node, sub *data.Database, perNode, depth int, env engine.Env) *engine.RunRecord) *engine.RunRecord {
	if servers < 1 {
		panic("multiround: need at least one server")
	}
	levels := make(map[int][]*Node)
	maxDepth := 0
	var collect func(n *Node)
	collect = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		d := n.Depth()
		levels[d] = append(levels[d], n)
		if d > maxDepth {
			maxDepth = d
		}
		for _, c := range n.Children {
			collect(c)
		}
	}
	collect(p.Root)

	materialized := make(map[string]*data.Relation, len(db.Relations))
	for name, r := range db.Relations {
		materialized[name] = r
	}

	rec := &engine.RunRecord{ServersUsed: servers}
	for _, r := range db.Relations {
		rec.InputBits += r.SizeBits(db.N)
	}

	for d := 1; d <= maxDepth; d++ {
		nodes := levels[d]
		if len(nodes) == 0 {
			continue
		}
		perNode := servers / len(nodes)
		if perNode < 1 {
			perNode = 1
		}
		level := &engine.RunRecord{}
		for _, n := range nodes {
			sub := data.NewDatabase(db.N)
			for _, a := range n.Query.Atoms {
				r, ok := materialized[a.Name]
				if !ok {
					panic(fmt.Sprintf("multiround: view %q not materialized before round %d", a.Name, d))
				}
				if r.Arity != a.Arity() {
					panic(fmt.Sprintf("multiround: view %q arity %d, atom wants %d", a.Name, r.Arity, a.Arity()))
				}
				if r.Name != a.Name {
					r = r.Clone()
					r.Name = a.Name
				}
				sub.Add(r)
			}
			nodeEnv := env
			if n != p.Root {
				nodeEnv.Sink = nil
			}
			nr := operator(n, sub, perNode, d, nodeEnv)
			if nr.Output != nil {
				nr.Output.Name = n.Name
			}
			materialized[n.Name] = nr.Output
			level.Beside(nr)
		}
		rec.Then(level)
	}
	rec.Output = materialized[p.Root.Name]
	return rec
}

// ExecuteSkewAwareCapMemoNet is ExecuteAggregateCapMemoNet (without the
// aggregate) with every plan node computed by the generalized heavy/light
// pattern algorithm instead of the vanilla HyperCube. The paper leaves
// multi-round skew open (Section 7); this is the natural engineering answer:
// intermediate views can become skewed even when the input is not (joins
// concentrate values), and per-node skew handling contains the resulting
// hotspots. The per-node skew layouts (heavy-hitter statistics plus pattern
// grids over the intermediate views) are drawn from memo — the per-node
// statistics recomputation is the bulk of the skew-aware executor's planning
// cost.
func ExecuteSkewAwareCapMemoNet(p *Plan, db *data.Database, servers int, seed int64, capBits float64, memo Memo, env engine.Env) *engine.RunRecord {
	return executeWith(p, db, servers, env, func(n *Node, sub *data.Database, perNode, d int, env engine.Env) *engine.RunRecord {
		gp := memo.do(fmt.Sprintf("node-skew|%s|d%d|pn%d|s%d", n.Name, d, perNode, seed), func() any {
			return skew.PrepareGeneric(n.Query, sub, perNode)
		}).(*skew.GenericPlan)
		return skew.RunGenericPlannedNet(gp, n.Query, sub, perNode, seed+int64(d), capBits, env)
	})
}
