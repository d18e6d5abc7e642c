package localjoin

import (
	"slices"
	"testing"

	"mpcquery/internal/engine"
	"mpcquery/internal/query"
)

// TestInboxFragments: an atom that reached the servers through one subcube is
// read in place — every member's fragment is a view of the same memory — while
// atoms fed tuple by tuple, next to each other, are concatenated into the
// worker's buffers; all hold exactly the inbox's tuples of their kind, and the
// per-worker headers are reused, not allocated per server.
func TestInboxFragments(t *testing.T) {
	q := query.MustParse("q(x,y,z) :- R(x,y), S(y,z), T(z,x)")
	c := engine.NewCluster(4, 8)
	defer c.Release()
	group := []int{0, 1, 2}
	c.Round("feed", func(s int, _ *engine.Inbox, emit *engine.Emitter) {
		for i := int64(0); i < 3; i++ {
			emit.EmitFanout(1, group, 0, []int64{int64(s), i}) // R: one subcube {1,2,3}
			emit.EmitTuple(1+int(i), 1, []int64{i, int64(s)})  // S and T: unicast, tuple by tuple
			emit.EmitTuple(1+int(i), 2, []int64{int64(s), i})
		}
	})
	kind := func(s, k int) []int64 {
		var vals []int64
		c.Inbox(s).Each(func(kk int, row []int64) {
			if kk == k {
				vals = append(vals, row...)
			}
		})
		return vals
	}
	sc := NewScratch()
	var first *int64
	for s := 1; s <= 3; s++ {
		frag := sc.InboxFragments(q, c.Inbox(s))
		if !frag[0].IsView() || !slices.Equal(frag[0].Vals(), kind(s, 0)) {
			t.Fatalf("server %d: R should be read in place, got view=%v %v, want %v", s, frag[0].IsView(), frag[0].Vals(), kind(s, 0))
		}
		if first == nil {
			first = &frag[0].Vals()[0]
		} else if first != &frag[0].Vals()[0] {
			t.Errorf("server %d reads its own copy of R", s)
		}
		for k := 1; k <= 2; k++ {
			if frag[k].IsView() || !slices.Equal(frag[k].Vals(), kind(s, k)) {
				t.Fatalf("server %d: atom %d should be concatenated, got view=%v %v, want %v", s, k, frag[k].IsView(), frag[k].Vals(), kind(s, k))
			}
		}
	}
	if allocs := testing.AllocsPerRun(20, func() { sc.InboxFragments(q, c.Inbox(2)) }); allocs != 0 {
		t.Errorf("InboxFragments allocates %v objects per server on a warm scratch", allocs)
	}
	if frag := sc.InboxFragments(q, c.Inbox(0)); frag[0].NumTuples()+frag[1].NumTuples()+frag[2].NumTuples() != 0 {
		t.Errorf("server 0 received nothing, fragments hold %v %v %v", frag[0].Vals(), frag[1].Vals(), frag[2].Vals())
	}
	sc.Release()
}
