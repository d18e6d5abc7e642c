package multiround

import (
	"fmt"
	"maps"

	"mpcquery/internal/aggregate"
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/skew"
)

// Memo is an optional per-node artifact memoizer supplied by a caching
// caller (the query service). It must return the value computed by an
// earlier call with the same key, or run compute and return its result. The
// per-node artifacts memoized here (the heavy/light layouts over the
// intermediate views: heavy-hitter statistics plus pattern grids) are
// deterministic in (plan, database, servers), which the caller encodes in
// the key prefix. They do not depend on the seed: a view's tuple order does,
// but skew.PrepareGeneric reads its values order-free. A nil Memo recomputes
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

// ExecuteAggregateCapMemoNet is Execute with every option. Every plan node
// is planned by skew.PrepareGeneric over its views and run by
// skew.RunGenericPlannedNet. The paper leaves multi-round skew open (Section
// 7): joins can concentrate values, so a view can be skewed when the input
// is not, and the heavy/light layout contains the hotspots. A node whose
// views hold no heavy value runs the all-light grid, HyperCube's plan.
//
//   - capBits is a declared per-round load cap in bits (0 = none) that every
//     node runs under; the record's Aborted reports whether any exceeded it;
//   - agg, when set, is computed at the root node: intermediate views stay
//     full joins, and the root's aggregate-shuffle round follows its join
//     round in the record, which then holds the aggregate;
//   - per-node layouts (column statistics and a share LP per bin pattern)
//     are drawn from memo, so a service replaying the query reuses them;
//   - every node's round delivery goes through env (the zero Env =
//     in-process, untraced). Nodes execute sequentially, in the same order
//     at every rank, so a distributed run attaches one cluster at a time.
//     Only the root streams into env.Sink (the record's Output is then nil).
//
// The records of one level's nodes, which share its round on disjoint
// servers, merge Beside each other, and each level follows the previous
// one. The plan's record spans the servers budget and its leaves' input,
// and its HeavyHitters sums the nodes'.
func ExecuteAggregateCapMemoNet(p *Plan, db *data.Database, servers int, seed int64, capBits float64, agg *aggregate.Plan, memo Memo, env engine.Env) *engine.RunRecord {
	if servers < 1 {
		panic("multiround: need at least one server")
	}
	levels := make([][]*Node, p.Rounds()+1) // by depth; every depth has a node
	rec := &engine.RunRecord{ServersUsed: servers}
	var collect func(n *Node)
	collect = func(n *Node) {
		if n.IsLeaf() {
			rec.InputBits += db.Get(n.Name).SizeBits(db.N)
			return
		}
		levels[n.Depth()] = append(levels[n.Depth()], n)
		for _, c := range n.Children {
			collect(c)
		}
	}
	collect(p.Root)

	materialized := maps.Clone(db.Relations)
	for d := 1; d < len(levels); d++ {
		nodes := levels[d]
		perNode := max(1, servers/len(nodes))
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
			nodeEnv, nodeAgg := env, agg
			if n != p.Root {
				nodeEnv.Sink, nodeAgg = nil, nil
			}
			gp := memo.do(fmt.Sprintf("node|%s|d%d|pn%d", n.Name, d, perNode), func() any {
				return skew.PrepareGeneric(n.Query, sub, perNode)
			}).(*skew.GenericPlan)
			nr := skew.RunGenericPlannedNet(gp, n.Query, sub, seed+int64(d), capBits, nodeAgg, nodeEnv)
			if nr.Output != nil {
				nr.Output.Name = n.Name
			}
			materialized[n.Name] = nr.Output
			rec.HeavyHitters += nr.HeavyHitters
			level.Beside(nr)
		}
		rec.Then(level)
	}
	rec.Output = materialized[p.Root.Name]
	return rec
}
