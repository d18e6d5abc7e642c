package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mpcquery"
	"mpcquery/internal/advisor"
	"mpcquery/internal/aggregate"
	"mpcquery/internal/core"
	"mpcquery/internal/engine"
	"mpcquery/internal/hashing"
	"mpcquery/internal/localjoin"
	"mpcquery/internal/multiround"
	"mpcquery/internal/packing"
	"mpcquery/internal/skew"
)

// microReps is how often each outside micro-timing runs; the median counts.
// fastReps is the same for calls that take microseconds.
const (
	microReps = 3
	fastReps  = 25
)

// traceDir is where the traced phase writes its spans, relative to the
// working directory (the root of the checkout).
var traceDir = filepath.Join("benchmark", "out")

// traceSums adds up what the program's own Chrome export says about the
// traced runs. The program is unmodified; the export is only read.
type traceSums struct {
	runs                             int
	wallMS, selfMS                   float64
	emitMS, deliverMS, computeMS     float64
	rounds, recvTuples, chunkFlushes float64
	emitSkew                         []float64
	kernelHits, kernelMisses         float64
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func arg(e chromeEvent, key string) float64 {
	v, _ := e.Args[key].(float64)
	return v
}

// observe reads one traced run: it records a span for the Run with the
// program's round and compute phases as children, and adds the run's layer
// times and counts to the sums.
func (ts *traceSums) observe(rec *recorder, runID int, tr *mpcquery.Trace, o outcome) error {
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		return fmt.Errorf("export program trace: %w", err)
	}
	var file struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		return fmt.Errorf("parse program trace: %w", err)
	}
	// The trace's clock started a few instructions before Run was entered.
	at := func(us float64) time.Time { return o.start.Add(time.Duration(us * float64(time.Microsecond))) }
	run := rec.add("mpcquery.Run", "root", o.start, o.start.Add(o.wall), -1, runID)

	type roundKey struct {
		pid  int
		name string
	}
	type emitKey struct {
		pid int
		ts  float64
	}
	emitStart := map[roundKey]float64{}
	emits := map[emitKey][]float64{}
	var heaviest roundKey
	heaviestBits := -1.0
	for _, e := range file.TraceEvents {
		child := func(layer string) { rec.add(e.Name, layer, at(e.Ts), at(e.Ts+e.Dur), run, runID) }
		switch {
		case e.Cat == "round" && strings.HasSuffix(e.Name, ": compute"):
			ts.emitMS += e.Dur / 1e3
			emitStart[roundKey{e.Pid, strings.TrimSuffix(e.Name, ": compute")}] = e.Ts
			child("engine.emit")
		case e.Cat == "round" && strings.HasSuffix(e.Name, ": deliver"):
			ts.deliverMS += e.Dur / 1e3
			ts.rounds++
			ts.chunkFlushes += arg(e, "chunk_flushes")
			if bits := arg(e, "total_recv_bits"); bits > heaviestBits {
				heaviestBits, heaviest = bits, roundKey{e.Pid, strings.TrimSuffix(e.Name, ": deliver")}
			}
			child("engine.deliver")
		case e.Cat == "compute":
			ts.computeMS += e.Dur / 1e3
			child("localjoin.compute")
		case e.Cat == "server" && e.Name == "emit":
			ts.recvTuples += arg(e, "recv_tuples")
			k := emitKey{e.Pid, e.Ts}
			emits[k] = append(emits[k], e.Dur)
		case e.Cat == "kernel":
			ts.kernelHits += arg(e, "hits")
			ts.kernelMisses += arg(e, "misses")
		}
	}
	// The slowest server sets the round: max over mean of the per-server emit
	// times of the round that moved the most bits.
	if per := emits[emitKey{heaviest.pid, emitStart[heaviest]}]; len(per) > 0 {
		ts.emitSkew = append(ts.emitSkew, ratio(quantile(per, 1), mean(per)))
	}
	ts.runs++
	ts.wallMS += ms(o.wall)
	ts.selfMS += ms(rec.selfTime(run))
	return nil
}

// layerTimes collects the outside micro-timings: per metric, one median per
// query (or dataset) the module runs on. The metric is their mean.
type layerTimes map[string][]float64

func (lt layerTimes) add(name string, v float64) { lt[name] = append(lt[name], v) }

// sinkCount keeps the micro-timings' results alive.
var sinkCount int

// timeItem times, from outside, the exported functions of the strategy
// modules that Run calls for this item, on the item's own query, database, p
// and hash seed. It returns the plan/prepare time, which Run pays before its
// first round and which no span of the program covers.
func timeItem(rec *recorder, lt layerTimes, it *item, hs int64) float64 {
	q, db := it.data.q, it.data.db
	switch it.kind {
	case kindHyperCube, kindOblivious:
		mode := core.SkewFree
		if it.kind == kindOblivious {
			mode = core.SkewOblivious
		}
		var plan *core.Plan
		planMS := rec.timed("core.PlanForDatabase", "core", microReps, func() {
			plan = core.PlanForDatabase(q, db, servers, mode)
		})
		lt.add("core.plan_ms", planMS)
		lt.add("core.execute_ms", rec.timed("core.RunPlan", "core", microReps, func() {
			env := engine.Env{Streaming: it.stream}
			if it.stream {
				env.Sink = &mpcquery.DigestSink{}
			}
			if ap := it.aggPlan(); ap != nil {
				core.RunPlanAggregateNet(plan, db, hs, 0, ap, env)
			} else {
				core.RunPlanWithCapNet(plan, db, hs, 0, env)
			}
		}))
		routeMS := rec.timed("hashing.Bin+Destinations", "hashing", microReps, func() { routeAll(plan, db, hs) })
		lt.add("hashing.route_ns_per_tuple", routeMS*1e6/float64(it.data.tuples))
		return planMS
	case kindSkewedTriangle:
		var tp *skew.TrianglePlan
		prepMS := rec.timed("skew.PrepareTriangle", "skew", microReps, func() { tp = skew.PrepareTriangle(q, db, servers) })
		lt.add("skew.prepare_ms", prepMS)
		lt.add("skew.execute_ms", rec.timed("skew.RunTrianglePlannedNet", "skew", microReps, func() {
			skew.RunTrianglePlannedNet(tp, q, db, servers, hs, 0, engine.Env{})
		}))
		return prepMS
	case kindStarSampled:
		var st *skew.StatsResult
		lt.add("skew.stats_round_ms", rec.timed("skew.StatsSpec.Run", "skew", microReps, func() {
			st = skew.StarStatsSpec(q, db, servers).Run(servers, sampleSize, hs, 0)
		}))
		var sp *skew.StarPlan
		prepMS := rec.timed("skew.PrepareStarWithFrequencies", "skew", microReps, func() {
			sp = skew.PrepareStarWithFrequencies(q, db, servers, st.PerAtom)
		})
		lt.add("skew.prepare_ms", prepMS)
		lt.add("skew.execute_ms", rec.timed("skew.RunStarPlannedNet", "skew", microReps, func() {
			skew.RunStarPlannedNet(sp, q, db, servers, hs, 0, engine.Env{})
		}))
		return prepMS
	default:
		var plan *multiround.Plan
		planMS := rec.timed("multiround.ChainPlan", "multiround", fastReps, func() { plan = multiround.ChainPlan(q.NumAtoms(), 0) })
		lt.add("multiround.plan_us", planMS*1e3)
		lt.add("multiround.execute_ms", rec.timed("multiround.Execute", "multiround", microReps, func() {
			multiround.ExecuteAggregateCapMemoNet(plan, db, servers, hs, 0, it.aggPlan(), nil, engine.Env{})
		}))
		return planMS
	}
}

// routeAll computes the HyperCube destinations of every input tuple under
// the plan's shares, as the shuffle round does, without emitting anything.
func routeAll(plan *core.Plan, db *mpcquery.Database, hs int64) {
	q := plan.Query
	grid := hashing.NewGrid(plan.Shares)
	family := hashing.NewFamily(hs, q.NumVars())
	for _, a := range q.Atoms {
		dims := make([]int, len(a.Vars))
		for c, v := range a.Vars {
			dims[c] = q.VarIndex(v)
		}
		bins := make([]int, len(dims))
		rel := db.Get(a.Name)
		for i, m := 0, rel.NumTuples(); i < m; i++ {
			t := rel.Tuple(i)
			for c, d := range dims {
				bins[c] = family.Bin(d, t[c], grid.Shares[d])
			}
			grid.Destinations(dims, bins, func(int) { sinkCount++ })
		}
	}
}

// timeDataset times the query-level modules on one dataset: parsing, the
// packing LPs, the advisor, and the local-join kernel evaluating the whole
// database on one node (the plain baseline of the same problem).
func timeDataset(rec *recorder, lt layerTimes, d *dataset) {
	q, db := d.q, d.db
	text := q.String()
	lt.add("query.parse_us", 1e3*rec.timed("mpcquery.ParseQuery+ShapeKey", "query", fastReps, func() {
		if parsed, err := mpcquery.ParseQuery(text); err == nil {
			sinkCount += len(parsed.ShapeKey())
		}
	}))
	bits := core.StatsBits(q, db)
	lt.add("packing.share_lp_us", 1e3*rec.timed("packing.ShareExponents", "packing", fastReps, func() {
		packing.ShareExponents(q, bits, servers)
	}))
	lt.add("packing.lower_bound_us", 1e3*rec.timed("packing.LLower", "packing", fastReps, func() {
		packing.LLower(q, bits, servers)
	}))
	lt.add("advisor.advise_ms", rec.timed("advisor.AdviseDatabase", "advisor", microReps, func() {
		advisor.AdviseDatabase(q, db, servers)
	}))

	byName := map[string]*mpcquery.Relation{}
	byAtom := make([]*mpcquery.Relation, q.NumAtoms())
	for j, a := range q.Atoms {
		byName[a.Name], byAtom[j] = db.Get(a.Name), db.Get(a.Name)
	}
	lt.add("localjoin.seq_eval_ms", rec.timed("localjoin.Evaluate", "localjoin", microReps, func() {
		sinkCount += localjoin.Evaluate(q, byName).NumTuples()
	}))
	sc := localjoin.NewScratch()
	lt.add("localjoin.stream_eval_ms", rec.timed("localjoin.EvaluateAtomsStream", "localjoin", microReps, func() {
		sinkCount += sc.EvaluateAtomsStream(q, byAtom, nil, engine.DefaultStreamChunk, func(vals []int64) { sinkCount += len(vals) })
	}))
	count := aggregate.NewPlan(aggregate.Count, "", nil, true)
	lt.add("localjoin.aggregate_eval_ms", rec.timed("localjoin.EvaluateAtomsAggregate", "localjoin", microReps, func() {
		_, rows := sc.EvaluateAtomsAggregate(q, byAtom, nil, count)
		sinkCount += rows
	}))
}

// measureLayers is the traced phase: the benchmark's own spans on, the
// program's trace attached to every second pass, plus the outside
// micro-timings. It reports per-layer metrics only.
func measureLayers(w *workload, opt options) (*workloadResult, error) {
	m := opt.size(w)
	b, err := setup(w, m, opt.seed)
	if err != nil {
		return nil, err
	}
	defer b.close()
	runtime.GC()

	// Untraced and traced passes alternate, so drift of the machine hits both
	// sides of the tracing-overhead ratio alike.
	rec := &recorder{}
	var plain, traced passStats
	var sums traceSums
	var traceErr error
	var allocated uint64
	paired := opt
	paired.seconds = opt.seconds / 2
	wireBefore := b.wireStats()
	for start := time.Now(); paired.more(start, plain.passes); {
		a0 := totalAlloc()
		b.onePass(opt.seed, plain.passes, &plain, nil)
		allocated += totalAlloc() - a0
		b.onePass(opt.seed, traced.passes, &traced, func(tr *mpcquery.Trace, o outcome) {
			if err := sums.observe(rec, sums.runs, tr, o); err != nil && traceErr == nil {
				traceErr = err
			}
		})
	}
	if traceErr != nil {
		return nil, traceErr
	}
	wire := b.wireStats().minus(wireBefore)
	wireRuns := float64((plain.passes + traced.passes) * len(b.items))

	// Outside micro-timings, in process: they time the modules, not the wire.
	hs := hashSeed(opt.seed, 0)
	lt := layerTimes{}
	planMS := make([]float64, len(b.items))
	for i, it := range b.items {
		planMS[i] = timeItem(rec, lt, it, hs)
	}
	eachDataset(b.items, func(d *dataset) { timeDataset(rec, lt, d) })
	first := b.items[0].data
	roundNS := repeat(microReps, func() float64 { return engineRound(rec, "engine", first, nil, false) })
	roundBatchNS := repeat(microReps, func() float64 { return engineRound(rec, "engine", first, nil, true) })

	// The same query list a second time: at GOMAXPROCS=1, and (tcp2-mix)
	// through the in-process runtime.
	side := opt
	side.seconds = opt.seconds / 6
	single := b.sidePasses(side, func() func() {
		prev := runtime.GOMAXPROCS(1)
		return func() { runtime.GOMAXPROCS(prev) }
	})
	tcpOverInproc, wireRoundNS := 0.0, 0.0
	if w.tcp {
		inproc := b.sidePasses(side, func() func() {
			rts := b.rts
			b.rts = nil
			return func() { b.rts = rts }
		})
		tcpOverInproc = ratio(plain.runMS(0.5), inproc.runMS(0.5))
		if wireRoundNS, err = transportRound(rec, first); err != nil {
			return nil, err
		}
	}

	// Counts of the last verified cycle: one run per query and hash seed.
	var saved, billed float64
	var heavy, used, chainRounds, overLB []float64
	for _, c := range b.cycle {
		it := b.items[c.item]
		saved += c.rep.AggregateBitsSaved
		billed += c.rep.TotalBits + c.rep.AggregateBitsSaved
		switch it.kind {
		case kindSkewedTriangle, kindStarSampled:
			heavy = append(heavy, float64(c.rep.HeavyHitters))
			used = append(used, float64(c.rep.ServersUsed))
		case kindChain:
			chainRounds = append(chainRounds, float64(c.rep.Rounds))
		case kindHyperCube, kindOblivious:
			lb, _ := packing.LLower(it.data.q, core.StatsBits(it.data.q, it.data.db), servers)
			overLB = append(overLB, c.rep.MaxLoadBits/lb)
		}
	}

	// Every outside micro-timing is reported as the mean over the queries (or
	// datasets) its module runs on; a module that ran on none reads 0.
	vals := map[string]float64{}
	for name, xs := range lt {
		vals[name] = mean(xs)
	}
	runs := float64(sums.runs)
	vals["core.plan_share"] = ratio(vals["core.plan_ms"], vals["core.plan_ms"]+vals["core.execute_ms"])
	vals["core.load_over_lb"] = geomean(overLB)
	vals["skew.prepare_share"] = ratio(vals["skew.prepare_ms"], vals["skew.prepare_ms"]+vals["skew.stats_round_ms"]+vals["skew.execute_ms"])
	vals["skew.heavy_hitters"] = mean(heavy)
	vals["skew.servers_used"] = mean(used)
	vals["multiround.rounds"] = mean(chainRounds)
	vals["engine.emit_busy_ms"] = sums.emitMS / runs
	vals["engine.deliver_busy_ms"] = sums.deliverMS / runs
	vals["engine.emit_skew"] = mean(sums.emitSkew)
	vals["engine.rounds"] = sums.rounds / runs
	vals["engine.recv_tuples"] = sums.recvTuples / runs
	vals["engine.chunk_flushes"] = sums.chunkFlushes / runs
	vals["engine.round_ns_per_tuple"] = roundNS
	vals["engine.round_batch_ns_per_tuple"] = roundBatchNS
	vals["localjoin.compute_busy_ms"] = sums.computeMS / runs
	vals["localjoin.cache_hit_rate"] = ratio(sums.kernelHits, sums.kernelHits+sums.kernelMisses)
	vals["aggregate.bits_saved_frac"] = ratio(saved, billed)
	vals["transport.wire_bytes_per_billed_byte"] = ratio(float64(wire.wireBytes), float64(wire.billedBytes))
	vals["transport.data_frames_per_run"] = float64(wire.dataFrames) / wireRuns
	vals["transport.ctrl_frames_per_run"] = float64(wire.ctrlFrames) / wireRuns
	vals["transport.resends"] = float64(wire.retries)
	vals["transport.round_ns_per_tuple"] = wireRoundNS
	vals["transport.tcp_over_inproc"] = tcpOverInproc
	vals["root.run_ms"] = sums.wallMS / runs
	vals["root.run_p90_ms"] = plain.runMS(0.9)
	vals["root.plan_ms"] = mean(planMS)
	vals["root.other_ms"] = sums.selfMS/runs - mean(planMS)
	vals["obs.trace_overhead_frac"] = ratio(traced.runMS(0.5), plain.runMS(0.5)) - 1
	vals["process.peak_rss_mb"] = peakRSSMB()
	vals["process.alloc_bytes_per_tuple"] = float64(allocated) / float64(plain.tuples)
	vals["process.gomaxprocs1_ratio"] = ratio(single.runMS(0.5), plain.runMS(0.5))
	res := b.result(m, 1, &traced)
	res.setAll(vals)
	res.Attempted, res.Failed = b.attempted, b.failed

	if err := rec.writeChrome(filepath.Join(traceDir, "trace-"+w.name+".json")); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

// sidePasses runs untraced passes of the query list under a temporary
// setting: enter applies it and returns the function that undoes it.
func (b *bench) sidePasses(opt options, enter func() func()) *passStats {
	defer enter()()
	var st passStats
	for start := time.Now(); opt.more(start, st.passes); {
		b.onePass(opt.seed, st.passes, &st, nil)
	}
	return &st
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMB reads VmHWM of /proc/self/status; 0 where there is none.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6
		}
	}
	return 0
}
