package localjoin

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/query"
)

// Scratch is the columnar join kernel's reusable working state: the
// struct-of-arrays binding arena (one value column per bound variable,
// ping-ponged between join steps), the private per-step hash indexes, the
// join-order and column-map buffers, and the fragment relations a
// computation phase rebuilds per server. A Scratch is not safe for
// concurrent use; a parallel computation phase keeps one per worker
// (engine.ParallelForWorkers / Cluster.Compute hand out worker ids for
// exactly this). After warm-up, evaluating with a Scratch allocates only the
// output relation.
type Scratch struct {
	// Binding arena: cols holds the current partial bindings column-wise
	// (cols[c][r] = value of bound variable c in binding r); next receives
	// the following step's bindings, then the two swap.
	cols, next [][]int64

	// Private indexes of the fragments nobody shares (id 0), one slot per
	// join step, backing arrays reused across calls.
	idxs []atomIndex

	// Join-order scratch (mirrors the baseline's greedy heuristic).
	order      []int
	used       []bool
	orderBound map[string]bool

	// The join order resolved into per-step column maps, rebuilt per
	// evaluation (not per window, not per tuple).
	varPos  map[string]int // bound variable -> binding column
	steps   []joinStep
	key     []int64        // gathered probe key values
	hitRow  []int32        // a step's matches in output order: binding row ...
	hitTup  []int32        // ... and matching tuple (int32, as in atomIndex)
	outCols [][]int64      // binding columns in q.Vars() order, for AppendColumns
	block   *data.Relation // the streamed path's window of output rows

	// Atom-indexed views for the map-based entry points and Fragments, and
	// the per-server cache handle Share fills.
	rels   []*data.Relation
	frags  []*data.Relation
	shared Shared

	// InboxFragments' reusable state: the inbox's per-kind views, one view
	// header per atom, and the fragment list handed out.
	kinds []engine.KindView
	views []*data.Relation
	inbox []*data.Relation
}

// NewScratch returns an empty kernel scratch.
func NewScratch() *Scratch { return &Scratch{} }

// scratchPool recycles kernel scratches process-wide, the same way the
// engine pools inbox arenas: a service evaluating a stream of rounds reuses
// the same binding arenas and index tables instead of growing fresh ones
// per run.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// GrabScratch takes a (possibly warm) scratch from the shared pool.
func GrabScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release returns the scratch to the shared pool. The caller must not use
// it afterwards. References into caller-owned data — the atom-indexed
// relation views, the fragment views into inbox arenas, the private indexes'
// value views, the last phase's cache and its indexes — are dropped so a
// pooled scratch never pins a retired database or a recycled arena; the
// scratch's own arenas (binding columns, index tables, fragment buffers) are
// retained for reuse.
func (s *Scratch) Release() {
	for i := range s.rels {
		s.rels[i] = nil
	}
	clear(s.kinds)
	for _, v := range s.views {
		if v != nil {
			v.Reset()
		}
	}
	for i := range s.idxs {
		s.idxs[i].vals = nil // always a view here; cache-published indexes go with the cache
	}
	for i := range s.steps {
		s.steps[i].ix = nil
	}
	s.shared.cache = nil
	scratchPool.Put(s)
}

// WorkerScratches hands one pooled Scratch to each ParallelForWorkers
// worker id, lazily on first use — the shared shape of every computation
// phase (one scratch per worker, all released when the phase ends).
type WorkerScratches struct {
	s []*Scratch
}

// NewWorkerScratches sizes the set for the widest possible worker pool.
func NewWorkerScratches() *WorkerScratches {
	return &WorkerScratches{s: make([]*Scratch, runtime.GOMAXPROCS(0))}
}

// Worker returns worker w's scratch, grabbing one from the pool on first
// use. Safe under ParallelForWorkers' contract: one goroutine per id.
func (ws *WorkerScratches) Worker(w int) *Scratch {
	if ws.s[w] == nil {
		ws.s[w] = GrabScratch()
	}
	return ws.s[w]
}

// Release returns every grabbed scratch to the pool.
func (ws *WorkerScratches) Release() {
	for i, sc := range ws.s {
		if sc != nil {
			sc.Release()
			ws.s[i] = nil
		}
	}
}

// Fragments returns scratch-owned relations, one per atom of q in atom
// order, emptied and ready to receive a server's inbox (typically via
// Relation.AppendVals from engine batches, whose kind tags are atom
// indices). The relations are reused across calls: results derived from
// them must be copied out (EvaluateAtoms' output always is) before the next
// Fragments call on the same scratch.
func (s *Scratch) Fragments(q *query.Query) []*data.Relation {
	n := q.NumAtoms()
	for len(s.frags) < n {
		s.frags = append(s.frags, nil)
	}
	fr := s.frags[:n]
	for j := range q.Atoms {
		a := &q.Atoms[j]
		if f := fr[j]; f != nil && f.Arity == a.Arity() && f.Name == a.Name {
			f.Reset()
		} else {
			fr[j] = data.NewRelation(a.Name, a.Arity())
		}
	}
	return fr
}

// InboxFragments returns the fragments of q a server holds in its inbox, one
// relation per atom in atom order (message kinds are atom indices) — the one
// inbox→fragments step of every computation phase. An atom whose tuples lie
// contiguous in an inbox arena (engine.Inbox.KindViews: the atom reached the
// server through one destination subcube) is read in place, through a view
// relation whose header the scratch reuses; any other atom's batches are
// concatenated into the scratch's fragment buffer, as Fragments' callers do.
// The relations are valid until the next InboxFragments or Fragments call on
// the scratch, and no longer than the inbox.
func (s *Scratch) InboxFragments(q *query.Query, ib *engine.Inbox) []*data.Relation {
	owned := s.Fragments(q)
	n := len(owned)
	s.kinds = slices.Grow(s.kinds[:0], n)[:n]
	ib.KindViews(s.kinds)
	for len(s.views) < n {
		s.views = append(s.views, nil)
	}
	s.inbox = append(s.inbox[:0], owned...)
	scattered := false
	for j, f := range owned {
		kv := &s.kinds[j]
		if kv.Arity == 0 {
			continue // no tuple of the atom: the emptied buffer says so
		}
		if kv.OK = kv.OK && kv.Arity == f.Arity; !kv.OK {
			scattered = true
			continue
		}
		v := s.views[j]
		if v == nil || v.Arity != f.Arity || v.Name != f.Name {
			v = data.NewRelation(f.Name, f.Arity)
			s.views[j] = v
		}
		v.SetView(kv.Vals)
		s.inbox[j] = v
	}
	if scattered {
		ib.EachBatch(func(b engine.Batch) {
			if !s.kinds[b.Kind].OK {
				owned[b.Kind].AppendVals(b.Vals)
			}
		})
	}
	return s.inbox
}

// Evaluate is Evaluate with this scratch's arenas (see the package-level
// function for the contract).
func (s *Scratch) Evaluate(q *query.Query, rels map[string]*data.Relation) *data.Relation {
	return s.EvaluateAtoms(q, s.byAtom(q, rels), nil)
}

// EvaluateAtoms evaluates q over relations given in atom order (rels[j] is
// atom j's relation — the natural indexing for a computation phase, whose
// message kinds are atom indices), sharing index builds through sh when
// non-nil. It is the kernel's primary entry point; inputs follow checkInputs'
// rule.
func (s *Scratch) EvaluateAtoms(q *query.Query, rels []*data.Relation, sh *Shared) *data.Relation {
	if checkInputs(q, rels, sh) {
		return data.NewRelation(q.Name, q.NumVars())
	}
	return s.run(q, rels, s.greedyOrder(q, rels), sh)
}

// checkInputs is the one input rule of the kernel's entry points (Evaluate,
// EvaluateAtoms, EvaluateAtomsStream, EvaluateAtomsAggregate). Inputs are
// assumed validated — Run's boundary checks every atom — so a nil relation
// panics with *MissingRelationError (which that boundary converts to its
// ErrMissingRelation sentinel), and it does so before anything else is
// looked at: a missing relation outranks an empty one. Otherwise it reports
// whether some relation is empty; a full conjunctive query needs every atom
// to contribute, so the caller then returns its empty result without
// ordering or indexing anything — the common case on the many empty servers
// of a skew-aware layout. Being the one place every evaluation passes, it is
// also where the provenance tests' observer sees the fragments.
func checkInputs(q *query.Query, rels []*data.Relation, sh *Shared) (empty bool) {
	for j, r := range rels {
		if r == nil {
			panic(&MissingRelationError{Atom: q.Atoms[j].Name})
		}
		empty = empty || r.NumTuples() == 0
	}
	if observe := fragmentObserver.Load(); observe != nil && sh != nil {
		for j, id := range sh.ids {
			if id != 0 {
				(*observe)(sh.cache, sh.cache.servers, sh.server, j, id, rels[j].Vals())
			}
		}
	}
	return empty
}

// byAtom gathers the map-keyed relations into the scratch's atom-indexed
// buffer (nil for absent atoms).
func (s *Scratch) byAtom(q *query.Query, rels map[string]*data.Relation) []*data.Relation {
	n := q.NumAtoms()
	for len(s.rels) < n {
		s.rels = append(s.rels, nil)
	}
	by := s.rels[:n]
	for j := range q.Atoms {
		by[j] = rels[q.Atoms[j].Name]
	}
	return by
}

// greedyOrder picks the join order exactly as the baseline evaluator does:
// start from the smallest relation, then repeatedly take the atom sharing
// the most variables with the bound set (ties: smaller relation), falling
// back to the smallest unjoined atom when none connects.
func (s *Scratch) greedyOrder(q *query.Query, rels []*data.Relation) []int {
	n := q.NumAtoms()
	if cap(s.used) < n {
		s.used = make([]bool, n)
	}
	used := s.used[:n]
	for i := range used {
		used[i] = false
	}
	if s.orderBound == nil {
		s.orderBound = make(map[string]bool)
	}
	clear(s.orderBound)
	bound := s.orderBound
	s.order = s.order[:0]

	sharedCount := func(j int) int {
		n, vars := 0, q.Atoms[j].Vars
		for c, v := range vars {
			if bound[v] && slices.Index(vars[:c], v) < 0 {
				n++
			}
		}
		return n
	}
	for len(s.order) < n {
		best := -1
		bestShared, bestSize := -1, 0
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			sc := sharedCount(j)
			sz := rels[j].NumTuples()
			if best < 0 || sc > bestShared || (sc == bestShared && sz < bestSize) {
				best, bestShared, bestSize = j, sc, sz
			}
		}
		used[best] = true
		s.order = append(s.order, best)
		for _, v := range q.Atoms[best].Vars {
			bound[v] = true
		}
	}
	return s.order
}

// repeatedVarPairs appends to buf the column pairs of the atom that a tuple
// must agree on to be self-consistent (S(x,x) matches only equal-column
// tuples): each later occurrence of a variable paired with its first
// occurrence. Computed once per atom per evaluation — the per-tuple check
// is then a handful of direct comparisons.
func repeatedVarPairs(atom *query.Atom, buf [][2]int) [][2]int {
	for j := 1; j < len(atom.Vars); j++ {
		for i := 0; i < j; i++ {
			if atom.Vars[i] == atom.Vars[j] {
				buf = append(buf, [2]int{i, j})
				break
			}
		}
	}
	return buf
}

// ensureCols grows cols to n columns and empties each, keeping capacity.
func ensureCols(cols [][]int64, n int) [][]int64 {
	for len(cols) < n {
		cols = append(cols, nil)
	}
	for i := 0; i < n; i++ {
		cols[i] = cols[i][:0]
	}
	return cols
}

// joinStep is one atom of the join order with its columns resolved against
// the variables the earlier steps bind. The maps depend on the order alone,
// not on the data, so they hold for every window of an evaluation.
type joinStep struct {
	atom       int
	nb         int      // bound columns entering the step
	sharedBind []int    // binding column per key variable
	keyCols    []int    // relation column per key variable
	freshCols  []int    // relation column per variable the step binds
	eqPairs    [][2]int // column pairs a self-consistent tuple agrees on

	// ix is the step's index (steps after the first), fetched or built when
	// the first binding reaches the step and kept for the later windows: an
	// evaluation performs the same builds and cache requests whatever its
	// window size.
	ix *atomIndex
}

// planSteps resolves order into s.steps and s.varPos.
func (s *Scratch) planSteps(q *query.Query, order []int) []joinStep {
	if s.varPos == nil {
		s.varPos = make(map[string]int, q.NumVars())
	}
	clear(s.varPos)
	for len(s.steps) < len(order) {
		s.steps = append(s.steps, joinStep{})
	}
	steps := s.steps[:len(order)]
	nb := 0
	for i, ai := range order {
		st, atom := &steps[i], &q.Atoms[ai]
		st.atom, st.nb, st.ix = ai, nb, nil
		st.sharedBind, st.keyCols, st.freshCols = st.sharedBind[:0], st.keyCols[:0], st.freshCols[:0]
		for c, v := range atom.Vars {
			if slices.Index(atom.Vars[:c], v) >= 0 {
				continue // repeated in-atom occurrence: handled by eqPairs
			}
			if pos, ok := s.varPos[v]; ok {
				st.sharedBind = append(st.sharedBind, pos)
				st.keyCols = append(st.keyCols, c)
			} else {
				s.varPos[v] = nb + len(st.freshCols)
				st.freshCols = append(st.freshCols, c)
			}
		}
		st.eqPairs = repeatedVarPairs(atom, st.eqPairs[:0])
		nb += len(st.freshCols)
	}
	return steps
}

// run is the materializing output path: one window over the whole first
// atom, its bindings transposed into the output in q.Vars() order with one
// bulk append.
func (s *Scratch) run(q *query.Query, rels []*data.Relation, order []int, sh *Shared) *data.Relation {
	out := data.NewRelation(q.Name, q.NumVars())
	s.join(q, rels, order, sh, rels[order[0]].NumTuples(), func(rows int) {
		out.AppendColumns(s.outputCols(q), rows)
	})
	return out
}

// outputCols returns the binding columns in q.Vars() order; every variable
// is bound once a window has surviving rows.
func (s *Scratch) outputCols(q *query.Query) [][]int64 {
	s.outCols = s.outCols[:0]
	for _, v := range q.Vars() {
		s.outCols = append(s.outCols, s.cols[s.varPos[v]])
	}
	return s.outCols
}

// join is the kernel core: a hash join over the atoms in the given order,
// run window rows of the first atom at a time. After every window that
// leaves rows > 0 complete bindings — column-wise in s.cols, s.varPos mapping
// each variable to its column — it calls emit(rows); the three output paths
// (materialize, stream, fold) differ only in their window and their emit.
//
// The first atom is not indexed: step 0 scans its window in ascending row
// order, dropping tuples that disagree with themselves on a repeated
// variable. Every later step probes an index whose chains run in ascending
// tuple order. Rows therefore come out in exactly the baseline evaluator's
// order — bindings in order, matches per binding in ascending tuple index —
// for every window size, so order-sensitive digests (Report.Fingerprint,
// sink digests) cannot tell the paths, the chunk sizes or the two evaluators
// apart.
func (s *Scratch) join(q *query.Query, rels []*data.Relation, order []int, sh *Shared, window int, emit func(rows int)) {
	steps := s.planSteps(q, order)
	st0 := &steps[0]
	rel0 := rels[st0.atom]
	arity0, vals0 := rel0.Arity, rel0.Vals()
	for lo, m := 0, rel0.NumTuples(); lo < m; lo += window {
		hi := min(lo+window, m)
		s.cols = ensureCols(s.cols, len(st0.freshCols))
		for i := range st0.freshCols {
			s.cols[i] = slices.Grow(s.cols[i], hi-lo)[:hi-lo]
		}
		rows := 0
	scan:
		for base := lo * arity0; base < hi*arity0; base += arity0 {
			for _, p := range st0.eqPairs {
				if vals0[base+p[0]] != vals0[base+p[1]] {
					continue scan
				}
			}
			for i, fc := range st0.freshCols {
				s.cols[i][rows] = vals0[base+fc]
			}
			rows++
		}
		for i := range st0.freshCols {
			s.cols[i] = s.cols[i][:rows]
		}
		for i := 1; i < len(steps) && rows > 0; i++ {
			st := &steps[i]
			if st.ix == nil {
				st.ix = s.stepIndex(i, st, rels[st.atom], sh)
			}
			rows = s.probe(st, rows)
		}
		if rows > 0 {
			emit(rows)
		}
	}
}

// stepIndex returns the index of one step after the first: the phase's shared
// build when the server's fragment has an id, else a private build over a
// view of the fragment. A shared build snapshots a fragment held in a worker's
// buffer, which the worker refills for its next server; a fragment that is
// itself a view (of an inbox arena, stable for the phase) is indexed in place.
func (s *Scratch) stepIndex(step int, st *joinStep, rel *data.Relation, sh *Shared) *atomIndex {
	if id := sh.id(st.atom); id != 0 {
		k := indexKey{atom: st.atom, id: id, sig: colSig(st.keyCols)}
		ix := sh.cache.getOrBuild(k, func() *atomIndex {
			fresh := new(atomIndex)
			fresh.build(rel, st.keyCols, st.eqPairs, true)
			return fresh
		})
		if verifyShared.Load() && !slices.Equal(ix.vals, rel.Vals()) {
			panic(fmt.Sprintf("localjoin: shared index of atom %d, fragment id %d, does not hold this server's fragment", st.atom, id))
		}
		return ix
	}
	for len(s.idxs) <= step {
		s.idxs = append(s.idxs, atomIndex{})
	}
	ix := &s.idxs[step]
	ix.build(rel, st.keyCols, st.eqPairs, false)
	return ix
}

// probe joins the rows bindings in s.cols with one step's index and returns
// the number of surviving bindings, left column-wise in s.cols. The matches
// are first listed as (binding row, tuple) pairs — bindings in order, each
// chain in ascending tuple order — and the next arena is then gathered from
// the list one column at a time, so every output value is written once by a
// loop that does nothing else. A step with no key columns (a Cartesian atom)
// finds every consistent tuple in one chain.
func (s *Scratch) probe(st *joinStep, rows int) int {
	ix, nb := st.ix, st.nb
	nk := len(st.sharedBind)
	if cap(s.key) < nk {
		s.key = make([]int64, nk)
	}
	key := s.key[:nk]
	arity := ix.arity
	hitRow, hitTup := s.hitRow[:0], s.hitTup[:0]
	for r := 0; r < rows; r++ {
		for t, bc := range st.sharedBind {
			key[t] = s.cols[bc][r]
		}
		slot := hashKey(key) & ix.mask
	chain:
		for e := ix.head[slot]; e != 0; e = ix.next[e] {
			base := int(e-1) * arity
			for t, kc := range ix.keyCols {
				if ix.vals[base+int(kc)] != key[t] {
					continue chain
				}
			}
			hitRow = append(hitRow, int32(r))
			hitTup = append(hitTup, e-1)
		}
	}
	s.hitRow, s.hitTup = hitRow, hitTup

	n := len(hitRow)
	s.next = ensureCols(s.next, nb+len(st.freshCols))
	for c := 0; c < nb; c++ {
		dst, src := slices.Grow(s.next[c], n)[:n], s.cols[c]
		for i, r := range hitRow {
			dst[i] = src[r]
		}
		s.next[c] = dst
	}
	for f, fc := range st.freshCols {
		dst := slices.Grow(s.next[nb+f], n)[:n]
		for i, t := range hitTup {
			dst[i] = ix.vals[int(t)*arity+fc]
		}
		s.next[nb+f] = dst
	}
	s.cols, s.next = s.next, s.cols
	return n
}
