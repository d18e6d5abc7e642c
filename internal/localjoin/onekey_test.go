package localjoin

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"mpcquery/internal/data"
	"mpcquery/internal/query"
)

// TestOneKeyLoopsMatchGeneral holds the one-key build (chainOne) and probe
// (matchOne) to the general loops (chainKeys, matchKeys) on the same step,
// and both to a brute-force match list: equal slot tables and chains, and
// the same (binding, tuple) matches in the same order — bindings ascending,
// tuples ascending within a binding. The data has long chains (a 9-value
// key domain over 300 tuples), negative keys, and probe keys that no tuple
// holds. With a repeated variable in the atom the build takes the general
// loop and the probe still the one-key loop.
func TestOneKeyLoopsMatchGeneral(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	rel := data.NewRelation("R", 3)
	for i := 0; i < 300; i++ {
		rel.Append(r.Int63n(9)-4, r.Int63n(3)-1, r.Int63n(3)-1)
	}
	keys := make([]int64, 200)
	for i := range keys {
		keys[i] = r.Int63n(13) - 6 // -6, -5, 5 and 6 are absent
	}
	for _, eqPairs := range [][][2]int{nil, {{1, 2}}} {
		var want [][2]int32
		for b, k := range keys {
			for i := 0; i < rel.NumTuples(); i++ {
				if tu := rel.Tuple(i); tu[0] == k && (eqPairs == nil || tu[1] == tu[2]) {
					want = append(want, [2]int32{int32(b), int32(i)})
				}
			}
		}
		longest := 0
		for i := 0; i < len(want); {
			j := i
			for j < len(want) && want[j][0] == want[i][0] {
				j++
			}
			longest = max(longest, j-i)
			i = j
		}
		if longest < 2 || len(want) == 0 {
			t.Fatalf("eqPairs %v: test data has no chain longer than 1 (%d matches)", eqPairs, len(want))
		}

		ix := new(atomIndex)
		ix.build(rel, []int{0}, eqPairs, false)
		general := *ix
		general.head = make([]int32, len(ix.head))
		general.next = make([]int32, len(ix.next))
		general.chainKeys(eqPairs)
		if !slices.Equal(general.head, ix.head) || !slices.Equal(general.next, ix.next) {
			t.Errorf("eqPairs %v: one-key build chains differ from the general loop's", eqPairs)
		}

		s := NewScratch()
		s.cols = [][]int64{keys}
		keysRow, keysTup := s.matchKeys(&joinStep{sharedBind: []int{0}, ix: ix}, len(keys), nil, nil)
		oneRow, oneTup := ix.matchOne(keys, nil, nil)
		for name, got := range map[string][2][]int32{
			"matchKeys": {keysRow, keysTup},
			"matchOne":  {oneRow, oneTup},
		} {
			if len(got[0]) != len(want) || len(got[1]) != len(want) {
				t.Fatalf("eqPairs %v: %s listed %d matches, want %d", eqPairs, name, len(got[0]), len(want))
			}
			for i, w := range want {
				if got[0][i] != w[0] || got[1][i] != w[1] {
					t.Fatalf("eqPairs %v: %s match %d is (%d, %d), want (%d, %d)",
						eqPairs, name, i, got[0][i], got[1][i], w[0], w[1])
				}
			}
		}
	}
}

// TestOneKeyRepeatedVariableMatchesBaseline runs a step whose build takes the
// general loop (S repeats y) and whose probe takes the one-key loop (only x
// is bound when S joins) on every kernel path against the baseline.
func TestOneKeyRepeatedVariableMatchesBaseline(t *testing.T) {
	q := query.MustParse("q(x,y) :- R(x), S(x,y,y)")
	r := rand.New(rand.NewSource(36))
	R, S := data.NewRelation("R", 1), data.NewRelation("S", 3)
	for i := 0; i < 40; i++ {
		R.Append(r.Int63n(11) - 5)
	}
	for i := 0; i < 400; i++ {
		S.Append(r.Int63n(11)-5, r.Int63n(3)-1, r.Int63n(3)-1)
	}
	checkPathsAgainstBaseline(t, "repeated y", q, map[string]*data.Relation{"R": R, "S": S})
}

// TestIndexCacheBuildPanicReachesWaiters: a worker waiting on a key whose
// build panics re-panics with the build's value instead of blocking for
// good (which would keep ParallelForWorkers, and with it Run, from ever
// returning), and the builder panics with it too.
func TestIndexCacheBuildPanicReachesWaiters(t *testing.T) {
	c := NewIndexCache()
	k := indexKey{atom: 1, id: 1}
	release := make(chan struct{})
	got := make(chan any, 2)
	call := func(build func() *atomIndex) {
		defer func() { got <- recover() }()
		c.getOrBuild(k, build)
	}
	go call(func() *atomIndex {
		<-release
		panic("boom")
	})
	for _, misses := c.Stats(); misses == 0; _, misses = c.Stats() {
		time.Sleep(time.Millisecond)
	}
	go call(func() *atomIndex {
		t.Error("a second build ran for a key already being built")
		return new(atomIndex)
	})
	for hits, _ := c.Stats(); hits == 0; hits, _ = c.Stats() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	deadline := time.After(10 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case v := <-got:
			if v != "boom" {
				t.Errorf("getOrBuild panicked with %v, want the build's panic %q", v, "boom")
			}
		case <-deadline:
			t.Fatalf("%d of 2 getOrBuild calls returned 10 s after the build panicked", i)
		}
	}
}
