package skew

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/query"
)

// fullySkewedStar builds a star database where EVERY tuple of every atom
// shares z = 7, so with exhaustive sampling each of the p servers
// multicasts exactly one candidate (value 7) per atom to every server —
// making the stats round's load computable by hand.
func fullySkewedStar(k, m int) *data.Database {
	db := data.NewDatabase(1 << 16)
	for j := 1; j <= k; j++ {
		rel := data.NewRelation(query.Star(k).Atoms[j-1].Name, 2)
		for i := 0; i < m; i++ {
			rel.Append(7, int64(j*100000+i))
		}
		db.Add(rel)
	}
	return db
}

// TestStatsProtocolIsOneGenuineRound pins the corrected accounting of the
// multi-atom statistics protocol: all ℓ atoms execute in ONE round on ONE
// cluster, and a server's load is the SUM of the candidate traffic across
// atoms — not the max over ℓ separately-run protocols, which understated
// both cost dimensions.
func TestStatsProtocolIsOneGenuineRound(t *testing.T) {
	const m, p = 400, 4
	db := fullySkewedStar(2, m)
	rels := []*data.Relation{db.Get("S1"), db.Get("S2")}
	cols := []int{0, 0}
	thr := []int{m / (4 * p), m / (4 * p)} // 25: well below the 100 local copies of z=7

	// Exhaustive sampling (sampleSize ≥ local partition) makes candidates
	// deterministic: every server multicasts exactly one (7, 100) pair per
	// atom to every server.
	st := StatsSpec{Rels: rels, Cols: cols, Thresholds: thr}.Run(p, m, 3, 0)
	if st.Round.Name != "stats-sample" {
		t.Fatalf("stats protocol must be one genuine round, got %+v", st.Round)
	}
	if len(st.PerAtom) != 2 {
		t.Fatalf("per-atom estimates: %d", len(st.PerAtom))
	}
	for j := 0; j < 2; j++ {
		if est := st.PerAtom[j][7]; est != m {
			t.Errorf("atom %d estimate for z=7: %d want %d (exhaustive sampling is exact)", j, est, m)
		}
	}
	// Load by hand: per atom, each of the p servers multicasts one
	// (value, estimate) pair = 2 values × 64 bits, delivered to every
	// server. Per receiver and atom: p·2·64 bits; the round carges the SUM
	// over both atoms.
	perAtomBits := float64(p * 2 * statsBitsPerValue)
	if want := 2 * perAtomBits; st.Round.MaxRecvBits != want {
		t.Errorf("stats round load=%v want %v (sum across atoms, not max)", st.Round.MaxRecvBits, want)
	}
	if want := 2 * perAtomBits * float64(p); st.Round.TotalRecvBits != want {
		t.Errorf("stats round total=%v want %v", st.Round.TotalRecvBits, want)
	}

	// Cross-check the sum property against the single-atom protocol runs.
	s1 := StatsSpec{Rels: rels[:1], Cols: cols[:1], Thresholds: thr[:1]}.Run(p, m, 3, 0)
	s2 := StatsSpec{Rels: rels[1:], Cols: cols[1:], Thresholds: thr[1:]}.Run(p, m, 3, 0)
	if st.Round.MaxRecvBits != s1.Round.MaxRecvBits+s2.Round.MaxRecvBits {
		t.Errorf("merged load %v must equal the sum of per-atom loads %v + %v",
			st.Round.MaxRecvBits, s1.Round.MaxRecvBits, s2.Round.MaxRecvBits)
	}
}

// TestStatsProtocolWithoutRelations: profiling nothing is an empty round with
// empty statistics, and a relation with no tuples is an atom with no
// candidates — neither is a panic.
func TestStatsProtocolWithoutRelations(t *testing.T) {
	st := StatsSpec{}.Run(4, 10, 1, 0)
	if len(st.PerAtom) != 0 || st.Round.TotalRecvBits != 0 || st.Round.Name != "stats-sample" {
		t.Errorf("no relations: got %+v, want one empty round", st)
	}
	st = StatsSpec{Rels: []*data.Relation{data.NewRelation("R", 2)}, Cols: []int{0}, Thresholds: []int{2}}.Run(4, 10, 1, 0)
	if len(st.PerAtom) != 1 || len(st.PerAtom[0]) != 0 || st.Round.TotalRecvBits != 0 {
		t.Errorf("empty relation: got %+v, want no candidates", st)
	}
}

// runStarSampled is SkewedStarSampled's run without an aggregate: the
// sampling round on StarStatsSpec's columns, the generic planner on its
// estimates, and the round charged before the data round.
func runStarSampled(q *query.Query, db *data.Database, p int, seed int64, sampleSize int) *engine.RunRecord {
	spec := StarStatsSpec(q, db, p)
	st := spec.Run(p, sampleSize, seed, 0)
	rec := RunGenericPlannedNet(PrepareGenericFromStats(q, db, p, spec, st.PerAtom), q, db, seed, 0, nil, engine.Env{})
	AddStatsCharges(rec, st)
	return rec
}

// TestRunStarSampledHonestAccounting pins the corrected end-to-end numbers:
// Rounds counts the stats round as one genuine round, TotalBits includes
// the stats communication, MaxLoadBits is the max over the stats and data
// rounds, and the replication rate reflects the combined total.
func TestRunStarSampledHonestAccounting(t *testing.T) {
	const m, p = 400, 4
	db := fullySkewedStar(2, m)
	q := query.Star(2)

	res := runStarSampled(q, db, p, 3, m)
	oracle := runGeneric(q, db, p, 3)

	if len(res.Rounds) != len(oracle.Rounds)+1 {
		t.Errorf("rounds=%d want %d (stats + data)", len(res.Rounds), len(oracle.Rounds)+1)
	}
	// The sampled statistics are exact here (exhaustive sampling), so the
	// data round matches the oracle run and the deltas isolate the stats
	// round's contribution.
	if !data.Equal(res.Output, oracle.Output) {
		t.Fatal("exhaustive sampling must reproduce the oracle output")
	}
	statsBits := 2 * float64(p*2*statsBitsPerValue) // per-receiver, both atoms
	if want := oracle.TotalBits() + statsBits*float64(p); res.TotalBits() != want {
		t.Errorf("TotalBits=%v want %v (data %v + stats %v)",
			res.TotalBits(), want, oracle.TotalBits(), statsBits*float64(p))
	}
	if want := math.Max(oracle.MaxLoadBits(), statsBits); res.MaxLoadBits() != want {
		t.Errorf("MaxLoadBits=%v want %v (max over stats and data rounds)", res.MaxLoadBits(), want)
	}
	if res.InputBits > 0 {
		if want := res.TotalBits() / res.InputBits; res.ReplicationRate() != want {
			t.Errorf("replication=%v want %v", res.ReplicationRate(), want)
		}
	}
	if res.TotalBits() < res.MaxLoadBits() {
		t.Errorf("TotalBits %v below MaxLoadBits %v", res.TotalBits(), res.MaxLoadBits())
	}
}

// TestRunStarSampledHeavyDetected: the corrected protocol still finds the
// planted heavy hitter and the algorithm stays correct under estimates.
func TestRunStarSampledHeavyDetected(t *testing.T) {
	const m, p = 400, 4
	db := fullySkewedStar(2, m)
	q := query.Star(2)
	res := runStarSampled(q, db, p, 3, m)
	if res.HeavyHitters != 1 {
		t.Errorf("heavy hitters=%d want 1 (z=7)", res.HeavyHitters)
	}
	want := sequentialAnswer(q, db)
	if !data.Equal(res.Output, want) {
		t.Errorf("output %d tuples, want %d", res.Output.NumTuples(), want.NumTuples())
	}
}

// TestStatsRoundThatDrawsIsPinned pins the branch of the statistics round
// that really samples: a server's share (4000/16 = 250 tuples) exceeds the
// sample size 50, so every server draws from its rng. Both hitters are found
// by some servers and missed by others, so the estimates depend on every
// draw. The numbers were captured from the frequency-map implementation
// (commit 650502f) before the sort-and-count round replaced it; the same
// instance is the skewed-star-sampled-draws golden of the root package.
func TestStatsRoundThatDrawsIsPinned(t *testing.T) {
	a := data.SkewedStarDatabase(rand.New(rand.NewSource(106)), 2, 4000, 1<<14, map[int64]int{5: 1300, 9: 30})
	b := data.SkewedStarDatabase(rand.New(rand.NewSource(107)), 2, 4000, 1<<14, map[int64]int{5: 40, 9: 1100})
	db := data.NewDatabase(1 << 14)
	db.Add(a.Get("S1"))
	db.Add(b.Get("S2"))
	q := query.Star(2)

	st := StarStatsSpec(q, db, 16).Run(16, 50, 7, 0)
	want := []map[int64]int{{5: 1160}, {9: 810}}
	if !reflect.DeepEqual(st.PerAtom, want) {
		t.Errorf("estimates %v, pinned %v", st.PerAtom, want)
	}
	if st.Round.MaxRecvBits != 3200 || st.Round.TotalRecvBits != 51200 {
		t.Errorf("statistics round: load %v, total %v; pinned 3200, 51200", st.Round.MaxRecvBits, st.Round.TotalRecvBits)
	}
	// The data round runs the generic planner on these estimates: 10 920
	// bits (the deleted star planner's residual shares read 10 668) — each
	// hitter's block is shaped by the share LP and integer shares on its
	// per-atom counts, with value 5 absent from S2's estimates.
	res := runStarSampled(q, db, 16, 7, 50)
	if res.MaxLoadBits() != 10920 || res.TotalBits() != 288360 || res.HeavyHitters != 2 || res.ServersUsed != 31 {
		t.Errorf("sampled run: load %v, total %v, %d heavy, %d servers; pinned 10920, 288360, 2, 31",
			res.MaxLoadBits(), res.TotalBits(), res.HeavyHitters, res.ServersUsed)
	}
}

// TestCandidateFloorKeepsEveryCandidate pins the statistics round's cut: the
// runs candidateFloor lets through are exactly the sampled values whose
// scaled estimate reaches the threshold — the filter over every run that it
// replaces — and the floor is the least count that does, over sample sizes,
// shares and thresholds drawn at random and at their edges.
func TestCandidateFloorKeepsEveryCandidate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(300)
		local := n + rng.Intn(4*n)
		if trial%5 == 0 {
			local = n // the whole share sampled: scale 1
		}
		scale := float64(local) / float64(n)
		thr := rng.Intn(2*local + 2)
		floor := candidateFloor(thr, scale, n)
		least := n + 1
		for c := n; c >= 1; c-- {
			if int(float64(c)*scale) >= thr {
				least = c
			}
		}
		if floor != least && (floor <= n || least <= n) {
			t.Fatalf("threshold %d, scale %d/%d: floor %d, least reaching count %d", thr, local, n, floor, least)
		}

		vals := make([]int64, n)
		for i := range vals {
			vals[i] = rng.Int63n(int64(1 + rng.Intn(n)))
		}
		freq := map[int64]int{}
		for _, v := range vals {
			freq[v]++
		}
		var want []data.Run
		for _, v := range data.SortedKeys(freq) {
			if int(float64(freq[v])*scale) >= thr {
				want = append(want, data.Run{Value: v, Count: freq[v]})
			}
		}
		got := data.Heavy(vals, 1, 0, floor)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("threshold %d, scale %d/%d: candidates %v, want %v", thr, local, n, got, want)
		}
	}
}
