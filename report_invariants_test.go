package mpcquery

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// TestReportInvariantsOverGoldenTable holds every strategy family's Report to
// the run record it is a view of, bit for bit, on the pinned golden
// workloads: one RoundStats entry per round, numbered from 1 in execution
// order, the maximum load the largest of them, and the replication rate the
// total over the input.
func TestReportInvariantsOverGoldenTable(t *testing.T) {
	for _, c := range goldenCases() {
		t.Run(c.name, func(t *testing.T) {
			rep, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Rounds != len(rep.RoundStats) {
				t.Fatalf("Rounds = %d but %d RoundStats", rep.Rounds, len(rep.RoundStats))
			}
			maxLoad := 0.0
			for i, rs := range rep.RoundStats {
				if rs.Round != i+1 {
					t.Errorf("RoundStats[%d].Round = %d, want %d", i, rs.Round, i+1)
				}
				maxLoad = max(maxLoad, rs.MaxLoadBits)
			}
			if math.Float64bits(rep.MaxLoadBits) != math.Float64bits(maxLoad) {
				t.Errorf("MaxLoadBits = %v, want the largest round load %v", rep.MaxLoadBits, maxLoad)
			}
			if want := rep.TotalBits / rep.InputBits; math.Float64bits(rep.ReplicationRate) != math.Float64bits(want) {
				t.Errorf("ReplicationRate = %v, want TotalBits/InputBits = %v", rep.ReplicationRate, want)
			}
		})
	}
}

// TestInputBitsCountsOnlyQueryAtoms holds every built-in strategy to the
// query's input: on a database that also holds a 5 000-tuple relation the
// query does not name, InputBits is Σ of the query atoms' sizes, and the
// multi-round prediction M_max/p^{1−ε} takes M_max over those atoms alone.
func TestInputBitsCountsOnlyQueryAtoms(t *testing.T) {
	const p = 16
	rng := rand.New(rand.NewSource(11))
	extra := NewRelation("Extra", 2)
	for i := 0; i < 5000; i++ {
		extra.Append(rng.Int63n(1<<14), rng.Int63n(1<<14))
	}
	edges := NewRelation("E", 2)
	for i := 0; i < 200; i++ {
		edges.Append(rng.Int63n(64), rng.Int63n(64))
	}
	selfDB := NewDatabase(1 << 14)
	selfDB.Add(edges)
	path := []Atom{{Name: "E", Vars: []string{"x", "y"}}, {Name: "E", Vars: []string{"y", "z"}}}
	cases := []struct {
		q          *Query
		atoms      []Atom
		db         *Database
		strategies []Strategy
	}{
		{Chain(3), Chain(3).Atoms, ChainMatchingDatabase(rng, 3, 1000, 1<<14), []Strategy{
			HyperCube(), HyperCubeOblivious(), HyperCubeShares(1, 4, 4, 1), SkewedGeneric(),
			ChainPlan(0), GreedyPlan(0), Auto(),
		}},
		{Triangle(), Triangle().Atoms, MatchingDatabase(rng, Triangle(), 300, 1<<14), []Strategy{SkewedTriangle()}},
		{Star(2), Star(2).Atoms, SkewedStarDatabase(rng, 2, 300, 1<<14, map[int64]int{5: 100}), []Strategy{SkewedStarSampled(50)}},
		{nil, path, selfDB, []Strategy{SelfJoin("paths", path...)}},
	}
	for _, c := range cases {
		c.db.Add(extra)
		want, maxM := 0.0, 0.0
		for _, a := range c.atoms {
			bits := c.db.Get(a.Name).SizeBits(c.db.N)
			want += bits
			maxM = max(maxM, bits)
		}
		for _, s := range c.strategies {
			rep, err := Run(c.q, c.db, WithStrategy(s), WithServers(p), WithSeed(3))
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if rep.InputBits != want {
				t.Errorf("%s: InputBits = %v, want Σ of the query atoms' sizes %v", s.Name(), rep.InputBits, want)
			}
			if _, ok := s.(multiRoundStrategy); ok && rep.PredictedLoadBits != maxM/p {
				t.Errorf("%s: PredictedLoadBits = %v, want the largest atom over p, %v", s.Name(), rep.PredictedLoadBits, maxM/p)
			}
		}
	}
}

// TestFingerprintOutputDigestIsFNV1a holds the output digest Fingerprint
// folds inline to hash/fnv's FNV-1a over every value in row order, 8
// little-endian bytes each — the digest the golden files pin — on random
// relations of arity 1 to 4 with negative values, the empty relation
// included.
func TestFingerprintOutputDigestIsFNV1a(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	for trial := 0; trial < 40; trial++ {
		arity, m := 1+trial%4, r.Intn(50)
		out := NewRelation("q", arity)
		for i := 0; i < m; i++ {
			tu := make([]int64, arity)
			for c := range tu {
				tu[c] = r.Int63() - r.Int63() // both signs, full width
			}
			out.AppendTuple(tu)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, v := range out.Vals() {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
		want := fmt.Sprintf("|out=%d/%d#%016x", m, arity, h.Sum64())
		if got := (&Report{Output: out}).Fingerprint(); !strings.HasSuffix(got, want) {
			t.Fatalf("trial %d: fingerprint %s does not end in %s", trial, got, want)
		}
	}
}
