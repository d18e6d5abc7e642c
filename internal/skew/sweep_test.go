package skew

import (
	"fmt"
	"math/rand"
	"testing"

	"mpcquery/internal/core"
	"mpcquery/internal/data"
	"mpcquery/internal/engine"
	"mpcquery/internal/localjoin/baseline"
	"mpcquery/internal/query"
)

// TestTriangleSweep runs the generic planner at DefaultHeavyCap — what
// SkewedTriangle runs — over one planted hitter of degree m/256 … m/4 and
// over several values of degree 2m/p per variable (heavy under the deleted
// planner's m/p cut, light under the share cut), and holds its MaxLoadBits to the
// hand-built Section 4.2.2 planner it replaced (recorded below, same data
// and hash seed 7) and to oblivious HyperCube. The output is compared with
// the frozen map-index evaluator of localjoin/baseline, which shares no code
// with the kernel the servers run.
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
				gp := PrepareGeneric(q, r.db, p, DefaultHeavyCap)
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
				// The allocation rule bounds the servers: p input servers, at
				// most p for the all-light grid (integer shares multiply to
				// at most p), and one grid of at most max(1, ⌊p·w/W⌋)
				// servers per heavy pattern of weight w out of W, which sum
				// to at most p + NumPatterns().
				if bound := 3*p + gp.NumPatterns(); rec.ServersUsed > bound {
					t.Errorf("ServersUsed %d above 3p + patterns = %d", rec.ServersUsed, bound)
				}
				t.Logf("MaxLoadBits %v (hand-built %v), %d servers, %d heavy", rec.MaxLoadBits(), before, rec.ServersUsed, rec.HeavyHitters)
			})
		}
	}
}
