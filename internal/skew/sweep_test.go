package skew

import (
	"fmt"
	"math/rand"
	"testing"

	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/hashing"
	"mpcquery/internal/localjoin/baseline"
	"mpcquery/internal/query"
)

// TestTriangleSweep runs the generic planner — what SkewedTriangle runs —
// over one planted hitter of degree m/256 … m/4 and over several values of
// degree 2m/p per variable (heavy under the deleted planner's m/p cut, light
// under the share cut), and holds its MaxLoadBits to the hand-built Section
// 4.2.2 planner it replaced (recorded below, same data and hash seed 7) and
// to oblivious HyperCube. The output is compared with the frozen map-index
// evaluator of localjoin/baseline, which shares no code with the kernel the
// servers run.
func TestTriangleSweep(t *testing.T) {
	q := query.Triangle()
	type row struct {
		name   string
		db     *data.Database
		before map[int]float64 // p → MaxLoadBits of the hand-built planner
	}
	const m = 4000
	before := map[int][4]float64{
		16:  {77920, 76320, 81600, 96864},
		64:  {25536, 25888, 28224, 21888},
		256: {11392, 11520, 13440, 9312},
	}
	var rows []row
	for i, h := range []int{m / 256, m / 64, m / 16, m / 4} {
		rows = append(rows, row{fmt.Sprintf("one-hitter/h=%d", h),
			data.SkewedTriangleDatabase(rand.New(rand.NewSource(7)), m, 64000, 1, h),
			map[int]float64{16: before[16][i], 64: before[64][i], 256: before[256][i]}})
	}
	// nh values of degree 2m/p = 200 in both columns of every relation, each
	// shared by the two relations of its variable.
	for i, nh := range []int{1, 4, 8} {
		rows = append(rows, row{fmt.Sprintf("multi-heavy/nh=%d", nh),
			skewedTriDB(7, 6400, 1<<12, nh, 200), map[int]float64{64: []float64{34200, 42720, 43704}[i]}})
	}

	for _, r := range rows {
		rels := map[string]*data.Relation{}
		for _, a := range q.Atoms {
			rels[a.Name] = r.db.Get(a.Name)
		}
		want := baseline.Evaluate(q, rels)
		for _, p := range []int{16, 64, 256} {
			before, ok := r.before[p]
			if !ok {
				continue
			}
			t.Run(fmt.Sprintf("%s/p=%d", r.name, p), func(t *testing.T) {
				gp := PrepareGeneric(q, r.db, p)
				rec := RunGenericPlannedNet(gp, q, r.db, p, 7, 0, engine.Env{})
				if !data.EqualMultiset(rec.Output, want) {
					t.Fatalf("output: %d tuples, reference %d", rec.Output.NumTuples(), want.NumTuples())
				}
				if got := rec.MaxLoadBits(); got > before {
					t.Errorf("MaxLoadBits %v above the hand-built triangle planner's %v", got, before)
				}
				if got, hc := rec.MaxLoadBits(), core.Run(q, r.db, p, 7, core.SkewOblivious).MaxLoadBits(); got > hc {
					t.Errorf("MaxLoadBits %v above oblivious HyperCube's %v", got, hc)
				}
				checkServers(t, rec, p, gp)
				t.Logf("MaxLoadBits %v (hand-built %v), %d servers, %d heavy", rec.MaxLoadBits(), before, rec.ServersUsed, rec.HeavyHitters)
			})
		}
	}
}

// checkServers holds a run's ServersUsed to what the allocation rule allows.
// The blocks start at server 0, on the input servers: at most p for the
// all-light grid (integer shares multiply to at most p), and one grid of at
// most max(1, ⌊p·w/W⌋) servers per heavy pattern of weight w out of W,
// which sum to at most p + NumPatterns(). The layout spans the larger of p
// and the blocks' total, so at most 2p + NumPatterns().
func checkServers(t *testing.T, rec *engine.RunRecord, p int, gp *GenericPlan) {
	t.Helper()
	if bound := 2*p + gp.NumPatterns(); rec.ServersUsed > bound {
		t.Errorf("ServersUsed %d above 2p + patterns = %d", rec.ServersUsed, bound)
	}
}

// starLoadSlack bounds the generic planner's MaxLoadBits on a star against
// the deleted Section 4.2.1 planner's: the light grid hashes z with a
// different member of the hash family (dimension z of the query instead of
// an extra one), which moves a balls-in-bins maximum; the worst row of the
// sweep read 1.083 (m = 4000, one hitter of degree 62, p = 256: 1664 bits
// against 1536).
const starLoadSlack = 1.10

// bagDigest is an order-free digest of r's rows: the row count and the sum
// of a 64-bit mix of every row. Two bags with equal digests are equal but
// for a 2⁻⁶⁴ chance; unlike a sort it reads a million-row output in
// milliseconds.
func bagDigest(r *data.Relation) [2]uint64 {
	var sum uint64
	for i := 0; i < r.NumTuples(); i++ {
		sum += hashing.CombineSlice(1, r.Tuple(i))
	}
	return [2]uint64{uint64(r.NumTuples()), sum}
}

// TestStarSweep runs the generic planner — what SkewedStar runs — over stars
// with one hitter of degree m/256 … m/4 and with many hitters of degree
// ⌊m/p⌋, and holds its MaxLoadBits to the deleted Section 4.2.1 planner's
// (recorded below, same data and hash seed 7) within starLoadSlack, and to
// oblivious HyperCube. The output is compared with the frozen map-index
// evaluator of localjoin/baseline.
func TestStarSweep(t *testing.T) {
	type row struct {
		k, m, deg, nh int
		before        map[int]float64 // p → MaxLoadBits of the Section 4.2.1 planner
	}
	rows := []row{
		{2, 4000, 15, 1, map[int]float64{16: 17568, 64: 5152, 256: 1600}},
		{2, 4000, 62, 1, map[int]float64{16: 19104, 64: 4800, 256: 1536}},
		{2, 4000, 250, 1, map[int]float64{16: 16544, 64: 4672, 256: 1632}},
		{2, 4000, 1000, 1, map[int]float64{16: 19296, 64: 8992, 256: 4992}},
		{2, 4000, 62, 32, map[int]float64{64: 4000}},
		{2, 4000, 62, 64, map[int]float64{64: 3968}},
		{2, 4000, 15, 64, map[int]float64{256: 1216}},
		{2, 4000, 15, 200, map[int]float64{256: 992}},
		{3, 2000, 31, 8, map[int]float64{64: 3270}},
		{3, 2000, 31, 40, map[int]float64{64: 2820}},
	}
	for _, r := range rows {
		q := query.Star(r.k)
		hitters := map[int64]int{}
		for v := 1; v <= r.nh; v++ {
			hitters[int64(v)] = r.deg
		}
		db := data.SkewedStarDatabase(rand.New(rand.NewSource(7)), r.k, r.m, int64(16*r.m), hitters)
		rels := map[string]*data.Relation{}
		for _, a := range q.Atoms {
			rels[a.Name] = db.Get(a.Name)
		}
		want := bagDigest(baseline.Evaluate(q, rels))
		for _, p := range []int{16, 64, 256} {
			before, ok := r.before[p]
			if !ok {
				continue
			}
			t.Run(fmt.Sprintf("T%d/m=%d/deg=%d/nh=%d/p=%d", r.k, r.m, r.deg, r.nh, p), func(t *testing.T) {
				gp := PrepareGeneric(q, db, p)
				rec := RunGenericPlannedNet(gp, q, db, p, 7, 0, engine.Env{})
				if got := bagDigest(rec.Output); got != want {
					t.Fatalf("output (rows, digest) %v, reference %v", got, want)
				}
				if got := rec.MaxLoadBits(); got > starLoadSlack*before {
					t.Errorf("MaxLoadBits %v above %v × the star planner's %v", got, starLoadSlack, before)
				}
				if got, hc := rec.MaxLoadBits(), core.Run(q, db, p, 7, core.SkewOblivious).MaxLoadBits(); got > hc {
					t.Errorf("MaxLoadBits %v above oblivious HyperCube's %v", got, hc)
				}
				if r.deg == r.m/p && rec.HeavyHitters < 1 {
					t.Errorf("no heavy hitter at degree ⌊m/p⌋ = %d", r.deg)
				}
				checkServers(t, rec, p, gp)
				t.Logf("MaxLoadBits %v (star planner %v), %d servers, %d heavy", rec.MaxLoadBits(), before, rec.ServersUsed, rec.HeavyHitters)
			})
		}
	}
}
