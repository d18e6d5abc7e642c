package main

import (
	"fmt"
	"math/rand"
	"strings"

	"mpcquery"
	"mpcquery/internal/aggregate"
)

// servers is p, the number of model servers of every run: the paper's tables
// and every test of the repository use 64.
const servers = 64

// sampleSize is the per-server sample of the SkewedStarSampled statistics
// round.
const sampleSize = 1000

// hashSeedsPerCycle is the number of distinct hash seeds a workload cycles
// through: pass i uses 1000·seed + (i mod hashSeedsPerCycle).
const hashSeedsPerCycle = 4

// oracleM is the relation size of the small copy of every query list that is
// checked against the naive internal/oracle during set-up.
const oracleM = 200

type strategyKind int

const (
	kindHyperCube strategyKind = iota
	kindOblivious
	kindSkewedTriangle
	kindStarSampled
	kindChain
)

func (k strategyKind) String() string {
	return [...]string{"HyperCube", "HyperCubeOblivious", "SkewedTriangle",
		fmt.Sprintf("SkewedStarSampled(%d)", sampleSize), "ChainPlan(0)"}[k]
}

// querySpec is one entry of a workload's fixed, ordered query list.
type querySpec struct {
	data   string // dataset name, see newDataset
	kind   strategyKind
	agg    *mpcquery.AggregateSpec // nil = plain join
	stream bool                    // WithStreaming + a DigestSink
}

// workload is one benchmark workload. Names are final: later issues refer to
// them. m is the relation size the benchmark runs at. The sizes keep a pass
// near a tenth of a second, so that the measured 20 s hold 150 to 300 passes
// and every query's p90 has well over ten samples beyond it.
type workload struct {
	name    string
	why     string
	m       int
	tcp     bool
	queries []querySpec
}

var workloads = []workload{
	{
		name: "oneround-matching",
		why:  "Skew-free one-round HyperCube (paper sec. 3): the plan is one tiny LP, so core routing, engine emit/deliver and the localjoin kernel do the work; plan or statistics changes must not move it.",
		m:    20000,
		queries: []querySpec{
			{data: "C3-matching", kind: kindHyperCube},
			{data: "L4-matching", kind: kindHyperCube},
			{data: "T3-matching", kind: kindHyperCube},
		},
	},
	{
		name: "skew-heavy",
		why:  "Heavy hitters (paper sec. 4): skew.Prepare* and the sampled statistics round are a large share of the wall; the oblivious HyperCube control keeps the load gap under skew visible.",
		m:    10000,
		queries: []querySpec{
			{data: "C3-heavy", kind: kindSkewedTriangle},
			{data: "T2-geo", kind: kindStarSampled},
			{data: "T2-geo", kind: kindOblivious},
		},
	},
	{
		name: "multiround-agg-stream",
		why:  "Same engine and kernel used differently (paper sec. 5): several small rounds with intermediates, the fold path (COUNT, pushdown) and the chunked streaming path with a sink.",
		m:    10000,
		queries: []querySpec{
			{data: "L8-matching", kind: kindChain},
			{data: "L8-matching", kind: kindChain, agg: &mpcquery.AggregateSpec{Op: mpcquery.AggCount}},
			{data: "T2-geo", kind: kindHyperCube, agg: &mpcquery.AggregateSpec{Op: mpcquery.AggCount, GroupBy: []string{"z"}}},
			{data: "T2-geo", kind: kindHyperCube, stream: true},
		},
	},
	{
		name: "tcp2-mix",
		why:  "Two SPMD ranks over loopback TCP: the only workload where transport framing and sockets do most of the work; in-process workloads bypass it, so a transport change must leave them flat.",
		m:    10000,
		tcp:  true,
		queries: []querySpec{
			{data: "C3-matching", kind: kindHyperCube},
			{data: "L8-matching", kind: kindChain},
			{data: "T2-geo", kind: kindStarSampled},
		},
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// dataset is one generated (query, database) pair with its reference answer.
type dataset struct {
	name   string
	q      *mpcquery.Query
	db     *mpcquery.Database
	tuples int // Σ input tuples over the query's atoms

	// Reference answer of the plain join. Small instances keep the oracle's
	// relation for an exact multiset compare; full-size ones keep a count and
	// an order-independent digest of the sequential answer (sorting a million
	// output tuples per compare would dominate set-up).
	ref       *mpcquery.Relation
	refCount  int
	refDigest uint64
}

// item is one query of a workload bound to its generated data.
type item struct {
	name string
	querySpec
	data   *dataset
	aggRef *mpcquery.Relation // expected aggregate output, agg items only
}

// newDataset generates the named dataset at relation size m over the value
// domain n = 16·m.
func newDataset(name string, rng *rand.Rand, m int) *dataset {
	n := int64(16 * m)
	d := &dataset{name: name}
	switch name {
	case "C3-matching":
		d.q = mpcquery.Triangle()
		d.db = mpcquery.MatchingDatabase(rng, d.q, m, n)
	case "L4-matching":
		d.q = mpcquery.Chain(4)
		d.db = mpcquery.ChainMatchingDatabase(rng, 4, m, n)
	case "L8-matching":
		d.q = mpcquery.Chain(8)
		d.db = mpcquery.ChainMatchingDatabase(rng, 8, m, n)
	case "T3-matching":
		d.q = mpcquery.Star(3)
		d.db = mpcquery.MatchingDatabase(rng, d.q, m, n)
	case "C3-heavy":
		// One x1 value of degree m/3 in S1 and S3: above m/p^(1/3), the
		// degree from which the triangle algorithm treats a value as heavy.
		d.q = mpcquery.Triangle()
		d.db = mpcquery.SkewedTriangleDatabase(rng, m, n, 1, m/3)
	case "T2-geo":
		// z degrees 3·m/p, halving down to m/(16·p): the first two are above
		// the star algorithm's heavy threshold m/p, the rest below it. The
		// output, Σ degree², stays near 12·(m/p)² tuples.
		d.q = mpcquery.Star(2)
		heavy := map[int64]int{}
		for deg, v := 3*m/servers, int64(1); deg >= max(2, m/(16*servers)); deg, v = deg/2, v+1 {
			heavy[v] = deg
		}
		d.db = mpcquery.SkewedStarDatabase(rng, 2, m, n, heavy)
	default:
		panic("benchmark: unknown dataset " + name)
	}
	for _, a := range d.q.Atoms {
		d.tuples += d.db.Get(a.Name).NumTuples()
	}
	return d
}

// buildItems generates a workload's query list at size m. Datasets are
// created at first use in list order, so the inputs are a pure function of
// (workload, m, seed).
func buildItems(w *workload, m int, seed int64) []*item {
	rng := rand.New(rand.NewSource(seed))
	byName := map[string]*dataset{}
	items := make([]*item, 0, len(w.queries))
	for _, spec := range w.queries {
		d := byName[spec.data]
		if d == nil {
			d = newDataset(spec.data, rng, m)
			byName[spec.data] = d
		}
		name := spec.data + " / " + spec.kind.String()
		if spec.agg != nil {
			name += " + " + strings.ToUpper(spec.agg.Op.String()) + "()"
			if len(spec.agg.GroupBy) > 0 {
				name += " BY " + strings.Join(spec.agg.GroupBy, ",")
			}
		}
		if spec.stream {
			name += " + streaming sink"
		}
		items = append(items, &item{name: name, querySpec: spec, data: d})
	}
	return items
}

func (it *item) strategy() mpcquery.Strategy {
	switch it.kind {
	case kindHyperCube:
		return mpcquery.HyperCube()
	case kindOblivious:
		return mpcquery.HyperCubeOblivious()
	case kindSkewedTriangle:
		return mpcquery.SkewedTriangle()
	case kindStarSampled:
		return mpcquery.SkewedStarSampled(sampleSize)
	default:
		return mpcquery.ChainPlan(0)
	}
}

// aggPlan is the item's aggregate as the internal executors take it (pushdown
// on, the default of Run), nil for a plain join.
func (it *item) aggPlan() *aggregate.Plan {
	if it.agg == nil {
		return nil
	}
	return aggregate.NewPlan(aggregate.Op(it.agg.Op), it.agg.Of, it.agg.GroupBy, true)
}
