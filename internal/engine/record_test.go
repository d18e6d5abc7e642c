package engine

import (
	"reflect"
	"testing"
)

// TestRecordCopiesRounds: a record lists the cluster's rounds in order and
// owns them — a later round of the cluster, or an append to the record, does
// not reach the other.
func TestRecordCopiesRounds(t *testing.T) {
	c := NewCluster(2, 4)
	defer c.Release()
	c.Seed(0, 0, []int64{1, 2})
	send := func(s int, inbox *Inbox, emit *Emitter) {
		inbox.Each(func(kind int, tu []int64) { emit.EmitTuple(1-s, kind, tu) })
	}
	c.Round("a", send)
	rec := c.Record(nil, 8)
	if len(rec.Rounds) != 1 || rec.Rounds[0].Name != "a" || rec.ServersUsed != 2 || rec.InputBits != 8 {
		t.Fatalf("record: %+v", rec)
	}
	if rec.MaxLoadBits() != 8 || rec.TotalBits() != 8 || rec.ReplicationRate() != 1 || rec.Aborted() {
		t.Fatalf("derived costs: L=%v T=%v r=%v aborted=%t", rec.MaxLoadBits(), rec.TotalBits(), rec.ReplicationRate(), rec.Aborted())
	}
	c.Round("b", send)
	rec.Then(&RunRecord{Rounds: []RoundStats{{Name: "x"}}})
	if got := c.Record(nil, 0).Rounds; got[1].Name != "b" || len(rec.Rounds) != 2 || rec.Rounds[1].Name != "x" {
		t.Fatalf("cluster rounds %+v, record rounds %+v: they alias", got, rec.Rounds)
	}
}

// TestThenAndBeside pins the two compositions: Then lists later rounds after
// earlier ones; Beside merges runs that shared rounds on disjoint servers —
// max of maxima, sum of totals, either abort flag, a longer side's extra
// rounds kept. Both add timings and saved bits and leave the executor's
// fields alone.
func TestThenAndBeside(t *testing.T) {
	a := &RunRecord{
		Rounds:    []RoundStats{{Name: "a1", MaxRecvBits: 5, TotalRecvBits: 9, MaxRecvTuples: 1, TotalRecvTuples: 3}},
		InputBits: 100, ServersUsed: 4, HeavyHitters: 1,
		AggregateBitsSaved: 1, ComputeSeconds: 1, CommSeconds: 2,
	}
	b := &RunRecord{
		Rounds: []RoundStats{
			{Name: "b1", MaxRecvBits: 7, TotalRecvBits: 10, MaxRecvTuples: 2, TotalRecvTuples: 4, Aborted: true},
			{Name: "b2", MaxRecvBits: 3, TotalRecvBits: 3},
		},
		InputBits: 1, ServersUsed: 1, HeavyHitters: 9,
		AggregateBitsSaved: 2, ComputeSeconds: 3, CommSeconds: 4,
	}
	a.Beside(b)
	want := []RoundStats{
		{Name: "a1", MaxRecvBits: 7, TotalRecvBits: 19, MaxRecvTuples: 2, TotalRecvTuples: 7, Aborted: true},
		{Name: "b2", MaxRecvBits: 3, TotalRecvBits: 3},
	}
	if !reflect.DeepEqual(a.Rounds, want) {
		t.Fatalf("Beside rounds %+v, want %+v", a.Rounds, want)
	}
	if a.InputBits != 100 || a.ServersUsed != 4 || a.HeavyHitters != 1 ||
		a.AggregateBitsSaved != 3 || a.ComputeSeconds != 4 || a.CommSeconds != 6 {
		t.Fatalf("Beside fields: %+v", a)
	}
	if a.MaxLoadBits() != 7 || a.TotalBits() != 22 || !a.Aborted() || a.ReplicationRate() != 0.22 {
		t.Fatalf("Beside costs: L=%v T=%v aborted=%t r=%v", a.MaxLoadBits(), a.TotalBits(), a.Aborted(), a.ReplicationRate())
	}

	plan := &RunRecord{ServersUsed: 16}
	plan.Then(&RunRecord{Rounds: []RoundStats{{Name: "l1", MaxRecvBits: 2}}, CommSeconds: 1})
	plan.Then(a)
	if len(plan.Rounds) != 3 || plan.Rounds[0].Name != "l1" || plan.Rounds[1].Name != "a1" || plan.Rounds[2].Name != "b2" {
		t.Fatalf("Then rounds: %+v", plan.Rounds)
	}
	if plan.ServersUsed != 16 || plan.InputBits != 0 || plan.CommSeconds != 7 || plan.AggregateBitsSaved != 3 {
		t.Fatalf("Then fields: %+v", plan)
	}
	if plan.ReplicationRate() != 0 {
		t.Errorf("replication over an empty input: %v, want 0", plan.ReplicationRate())
	}
}
