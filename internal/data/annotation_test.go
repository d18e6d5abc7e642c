package data

import "testing"

func TestAnnotatedRelationBasics(t *testing.T) {
	r := NewRelation("r", 2)
	if r.Annotated() {
		t.Fatal("fresh relation must be plain")
	}
	r.AppendAnnotatedTuple([]int64{1, 2}, 10)
	r.AppendAnnotatedTuple([]int64{3, 4}, -5)
	if !r.Annotated() || r.NumTuples() != 2 {
		t.Fatal("annotated appends lost")
	}
	if r.Annotation(0) != 10 || r.Annotation(1) != -5 {
		t.Fatal("annotation values wrong")
	}
	if got := r.Annotations(); len(got) != 2 {
		t.Fatal("Annotations() must expose the column")
	}

	c := r.Clone()
	if !c.Annotated() || c.Annotation(1) != -5 {
		t.Fatal("Clone must copy annotations")
	}
	c.annot[1] = 99
	if r.Annotation(1) != -5 {
		t.Fatal("Clone must deep-copy annotations")
	}

	r.Reset()
	if r.Annotated() || r.NumTuples() != 0 {
		t.Fatal("Reset must clear annotations")
	}
	// After Reset both append families are open again.
	r.AppendTuple([]int64{7, 8})
	if r.NumTuples() != 1 {
		t.Fatal("plain append after Reset failed")
	}
}

func TestAnnotatedSizeBitsCountsExtraColumn(t *testing.T) {
	plain := FromTuples("r", 2, []int64{1, 2})
	ann := NewRelation("r", 2)
	ann.AppendAnnotatedTuple([]int64{1, 2}, 3)
	n := int64(1 << 10)
	if got, want := ann.SizeBits(n), plain.SizeBits(n)*3/2; got != want {
		t.Fatalf("annotated SizeBits = %f, want %f (one extra column)", got, want)
	}
}

func TestMixedAppendFamiliesPanic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("plain after annotated", func() {
		r := NewRelation("r", 1)
		r.AppendAnnotatedTuple([]int64{1}, 1)
		r.AppendTuple([]int64{2})
	})
	mustPanic("annotated after plain", func() {
		r := NewRelation("r", 1)
		r.AppendTuple([]int64{1})
		r.AppendAnnotatedTuple([]int64{2}, 1)
	})
	mustPanic("vals after annotated", func() {
		r := NewRelation("r", 1)
		r.AppendAnnotatedTuple([]int64{1}, 1)
		r.AppendVals([]int64{2})
	})
}
