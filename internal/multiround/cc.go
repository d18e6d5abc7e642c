package multiround

import (
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/hashing"
)

// CCResult reports a connected-components computation in the MPC model.
type CCResult struct {
	Labels map[int64]int64 // vertex -> component label (min vertex id)

	SetupRounds int // rounds spent distributing adjacency (always 1)
	IterRounds  int // communication rounds of the iterative phase
	MaxLoadBits float64
	TotalBits   float64
}

// message kinds for the CC protocols.
const (
	ccEdge    = iota // (v, u): u is a neighbor of v, delivered to owner(v)
	ccLabel          // (v, label): min-label update for v
	ccPtrReq         // (v, w): owner(v) asks owner(w) for ptr[w]
	ccPtrResp        // (v, val): response, delivered to owner(v)
)

// ccState is the per-server local state (the model allows servers to keep
// what they received; only communication is metered).
type ccState struct {
	adj   map[int64][]int64
	label map[int64]int64
}

func ccSetup(g *data.Graph, p int, seed int64) (*engine.Cluster, []*ccState, *hashing.Family) {
	bpv := data.BitsPerValue(g.NumVertices)
	cluster := engine.NewCluster(p, bpv)
	family := hashing.NewFamily(seed, 1)
	cluster.SeedRoundRobin(p, ccEdge, g.Edges.Arity, g.Edges.Vals())
	owner := func(v int64) int { return family.Bin(0, v, p) }

	// Setup round: deliver each edge to both endpoint owners.
	cluster.Round("cc-setup", func(s int, inbox *engine.Inbox, emit *engine.Emitter) {
		pair := make([]int64, 2)
		inbox.Each(func(kind int, t []int64) {
			u, v := t[0], t[1]
			pair[0], pair[1] = u, v
			emit.EmitTuple(owner(u), ccEdge, pair)
			pair[0], pair[1] = v, u
			emit.EmitTuple(owner(v), ccEdge, pair)
		})
	})

	states := make([]*ccState, p)
	for s := 0; s < p; s++ {
		st := &ccState{adj: make(map[int64][]int64), label: make(map[int64]int64)}
		cluster.Inbox(s).Each(func(kind int, t []int64) {
			st.adj[t[0]] = append(st.adj[t[0]], t[1])
		})
		states[s] = st
	}
	return cluster, states, family
}

// LabelPropagation computes connected components by iterative min-label
// exchange along edges: Θ(diameter) rounds with load O(m/p) per round.
// maxRounds caps the iteration (0 means no cap).
func LabelPropagation(g *data.Graph, p int, seed int64, maxRounds int) *CCResult {
	cluster, states, family := ccSetup(g, p, seed)
	owner := func(v int64) int { return family.Bin(0, v, p) }

	changed := make([]map[int64]bool, p)
	for s, st := range states {
		changed[s] = make(map[int64]bool)
		for v := range st.adj {
			st.label[v] = v
			changed[s][v] = true
		}
	}

	iter := 0
	for {
		if maxRounds > 0 && iter >= maxRounds {
			break
		}
		st := cluster.Round("cc-propagate", func(s int, inbox *engine.Inbox, emit *engine.Emitter) {
			// Apply updates received last round, then announce changes.
			local := states[s]
			inbox.Each(func(kind int, t []int64) {
				if kind != ccLabel {
					return
				}
				v, l := t[0], t[1]
				if l < local.label[v] {
					local.label[v] = l
					changed[s][v] = true
				}
			})
			pair := make([]int64, 2)
			// Sorted, not map order: emission order is inbox order is wire
			// order, and SPMD ranks must serialize identical frames.
			for _, v := range data.SortedKeys(changed[s]) {
				l := local.label[v]
				for _, u := range local.adj[v] {
					if l < u { // only useful updates travel
						pair[0], pair[1] = u, l
						emit.EmitTuple(owner(u), ccLabel, pair)
					}
				}
			}
			changed[s] = make(map[int64]bool)
		})
		iter++
		if st.TotalRecvTuples == 0 {
			break
		}
	}
	// Deliver any final pending updates (the loop exits after an empty
	// round, so labels are already stable).

	labels := collectLabels(g, states, family, p)
	defer cluster.Release()
	rec := cluster.Record(nil, 0)
	return &CCResult{
		Labels:      labels,
		SetupRounds: 1,
		IterRounds:  iter,
		MaxLoadBits: rec.MaxLoadBits(),
		TotalBits:   rec.TotalBits(),
	}
}

// PointerJumping computes connected components with min-pointer doubling:
// each vertex maintains ptr[v] (a smaller-id vertex in its component);
// every iteration both relaxes along edges and jumps ptr[v] ← ptr[ptr[v]],
// converging in O(log diameter) iterations on paths (two communication
// rounds per iteration: request + response).
func PointerJumping(g *data.Graph, p int, seed int64, maxRounds int) *CCResult {
	cluster, states, family := ccSetup(g, p, seed)
	owner := func(v int64) int { return family.Bin(0, v, p) }

	for _, st := range states {
		for v, ns := range st.adj {
			best := v
			for _, u := range ns {
				if u < best {
					best = u
				}
			}
			st.label[v] = best // label doubles as ptr
		}
	}

	iter := 0
	for {
		if maxRounds > 0 && iter >= maxRounds {
			break
		}
		anyChange := false
		// Round A: send pointer requests and edge relaxations.
		cluster.Round("cc-jump-request", func(s int, inbox *engine.Inbox, emit *engine.Emitter) {
			local := states[s]
			pair := make([]int64, 2)
			// Sorted for deterministic emission order (see cc-update above).
			for _, v := range data.SortedKeys(local.label) {
				ptr := local.label[v]
				if ptr != v {
					pair[0], pair[1] = v, ptr
					emit.EmitTuple(owner(ptr), ccPtrReq, pair)
				}
				for _, u := range local.adj[v] {
					if ptr < u {
						pair[0], pair[1] = u, ptr
						emit.EmitTuple(owner(u), ccLabel, pair)
					}
				}
			}
		})
		// Round B: answer requests; apply relaxations.
		relaxChanged := make([]bool, p)
		cluster.Round("cc-jump-response", func(s int, inbox *engine.Inbox, emit *engine.Emitter) {
			local := states[s]
			pair := make([]int64, 2)
			inbox.Each(func(kind int, t []int64) {
				switch kind {
				case ccPtrReq:
					v, w := t[0], t[1]
					lw, ok := local.label[w]
					if !ok {
						lw = w // w unknown here (cannot happen for edge vertices)
					}
					pair[0], pair[1] = v, lw
					emit.EmitTuple(owner(v), ccPtrResp, pair)
				case ccLabel:
					v, l := t[0], t[1]
					if cur, ok := local.label[v]; ok && l < cur {
						local.label[v] = l
						relaxChanged[s] = true
					}
				}
			})
		})
		// Apply responses locally (no further communication needed).
		for s := 0; s < p; s++ {
			local := states[s]
			cluster.Inbox(s).Each(func(kind int, t []int64) {
				if kind != ccPtrResp {
					return
				}
				v, l := t[0], t[1]
				if l < local.label[v] {
					local.label[v] = l
					relaxChanged[s] = true
				}
			})
			if relaxChanged[s] {
				anyChange = true
			}
		}
		iter++
		if !anyChange {
			break
		}
	}

	labels := collectLabels(g, states, family, p)
	defer cluster.Release()
	rec := cluster.Record(nil, 0)
	return &CCResult{
		Labels:      labels,
		SetupRounds: 1,
		IterRounds:  2 * iter,
		MaxLoadBits: rec.MaxLoadBits(),
		TotalBits:   rec.TotalBits(),
	}
}

func collectLabels(g *data.Graph, states []*ccState, family *hashing.Family, p int) map[int64]int64 {
	labels := make(map[int64]int64)
	for _, st := range states {
		for v, l := range st.label {
			labels[v] = l
		}
	}
	// Isolated vertices label themselves.
	for v := int64(0); v < g.NumVertices; v++ {
		if _, ok := labels[v]; !ok {
			labels[v] = v
		}
	}
	return labels
}
