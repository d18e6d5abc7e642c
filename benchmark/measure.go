package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"mpcquery"
	"mpcquery/internal/aggregate"
	"mpcquery/internal/hashing"
	"mpcquery/internal/localjoin"
	"mpcquery/internal/oracle"
	"mpcquery/internal/transport"
)

// setupRepeats is how often the end-to-end run sets the workload up; setup_s
// is the median, so one slow dial or page-fault storm does not decide it.
const setupRepeats = 5

// options are the command-line settings shared by both phases.
type options struct {
	seed    int64
	seconds float64 // measured duration of a phase
	passes  int     // > 0: run exactly this many passes instead
	m       int     // > 0: override the workload's relation size
}

func (o options) size(w *workload) int {
	if o.m > 0 {
		return o.m
	}
	return w.m
}

// more reports whether a phase that started at start and finished done
// passes should run another one.
func (o options) more(start time.Time, done int) bool {
	if o.passes > 0 {
		return done < o.passes
	}
	return time.Since(start).Seconds() < o.seconds
}

func hashSeed(seed int64, pass int) int64 {
	return 1000*seed + int64(pass%hashSeedsPerCycle)
}

// outcome is one Run as the closed-loop client saw it.
type outcome struct {
	rep      *mpcquery.Report // rank 0's report
	sinkRows int              // rows the DigestSink received, stream items only
	key      string           // Fingerprint (plus the sink digest) — equal keys mean equal answers and equal cost
	start    time.Time        // when rank 0 entered Run
	wall     time.Duration    // rank 0's wall time of Run
	err      error
}

type refKey struct {
	item     int
	hashSeed int64
}

// cycleRun is one run of the last verified cycle: every query at every hash
// seed exactly once. The exact metrics are computed from these, so they do
// not depend on how many passes fit into the measured duration.
type cycleRun struct {
	item int
	rep  *mpcquery.Report // Output dropped
}

// bench is one set-up workload: generated inputs, reference answers, the
// dialled runtime and the fingerprints every later run must reproduce.
type bench struct {
	w     *workload
	items []*item
	rts   []*mpcquery.DistributedRuntime // both ranks of tcp2-mix; nil in-process
	refs  map[refKey]string
	cycle []cycleRun

	attempted, failed int
}

// setup generates the inputs from seed, computes reference answers, checks a
// small copy of the query list against the naive oracle, dials the runtime
// and runs one verified cycle, which also warms pools and lazy state.
func setup(w *workload, m int, seed int64) (*bench, error) {
	small := &bench{w: w, items: buildItems(w, oracleM, seed), refs: map[refKey]string{}}
	small.oracleRefs()
	small.verifiedCycle(seed)

	b := &bench{w: w, items: buildItems(w, m, seed), refs: map[refKey]string{},
		attempted: small.attempted, failed: small.failed}
	b.sequentialRefs()
	b.verifiedCycle(seed)
	if w.tcp {
		// The in-process cycle above fixed the reference fingerprints; both
		// ranks of every TCP run must now reproduce them.
		rts, err := dialAll(2, func(rank int, addrs []string) (*mpcquery.DistributedRuntime, error) {
			return mpcquery.DialRuntime(rank, addrs, mpcquery.WithRoundTimeout(20*time.Second))
		})
		if err != nil {
			return nil, err
		}
		b.rts = rts
		b.verifiedCycle(seed)
	}
	return b, nil
}

func (b *bench) close() {
	for _, rt := range b.rts {
		_ = rt.Close() // nothing is in flight; a close error changes no result
	}
	b.rts = nil
}

// dialAll brings up n ranks on loopback, each dialling from its own goroutine
// as separate worker processes would, and closes the ones that came up if any
// did not.
func dialAll[T io.Closer](n int, dial func(rank int, addrs []string) (T, error)) ([]T, error) {
	addrs, err := transport.FreeLoopbackAddrs(n)
	if err != nil {
		return nil, fmt.Errorf("reserve loopback addresses: %w", err)
	}
	ranks := make([]T, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := range ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ranks[r], errs[r] = dial(r, addrs)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for r, rank := range ranks {
			if errs[r] == nil {
				_ = rank.Close() // the dial error is the one to report
			}
		}
		return nil, fmt.Errorf("dial loopback ranks: %w", err)
	}
	return ranks, nil
}

// eachDataset calls f once per distinct dataset, in list order.
func eachDataset(items []*item, f func(d *dataset)) {
	seen := map[*dataset]bool{}
	for _, it := range items {
		if !seen[it.data] {
			seen[it.data] = true
			f(it.data)
		}
	}
}

// oracleRefs takes the reference answers of a small instance from the
// independent naive evaluator.
func (b *bench) oracleRefs() {
	eachDataset(b.items, func(d *dataset) {
		d.ref = oracle.Evaluate(d.q, d.db)
		d.refCount = d.ref.NumTuples()
	})
	for _, it := range b.items {
		if it.agg != nil {
			it.aggRef = oracle.Aggregate(it.data.q, it.data.db, it.agg.Op.String(), it.agg.Of, it.agg.GroupBy)
		}
	}
}

// sequentialRefs takes the reference answers of a full-size instance from
// the single-node evaluation of the same query.
func (b *bench) sequentialRefs() {
	seq := map[*dataset]*mpcquery.Relation{}
	eachDataset(b.items, func(d *dataset) {
		seq[d] = mpcquery.SequentialAnswer(d.q, d.db)
		d.refCount, d.refDigest = bagDigest(seq[d])
	})
	for _, it := range b.items {
		if it.agg != nil {
			plan := it.aggPlan()
			folded := localjoin.FoldOutput(seq[it.data], it.data.q, plan)
			it.aggRef = aggregate.Finalize(it.data.q.Name, []*mpcquery.Relation{folded}, plan)
		}
	}
}

// bagDigest returns the tuple count and an order-independent digest of r:
// equal bags give equal digests whatever order the servers produced them in.
func bagDigest(r *mpcquery.Relation) (int, uint64) {
	var sum uint64
	m := r.NumTuples()
	for i := 0; i < m; i++ {
		sum += hashing.CombineSlice(0x62656e6368, r.Tuple(i))
	}
	return m, sum
}

// verify compares a run's output to the item's reference answer.
func (it *item) verify(o outcome) bool {
	d := it.data
	switch {
	case it.stream:
		return o.rep.Output == nil && o.sinkRows == d.refCount
	case it.agg != nil:
		return mpcquery.EqualRelations(o.rep.Output, it.aggRef)
	case d.ref != nil:
		return mpcquery.EqualRelations(o.rep.Output, d.ref)
	default:
		n, digest := bagDigest(o.rep.Output)
		return n == d.refCount && digest == d.refDigest
	}
}

// verifiedCycle runs every query at every hash seed once and checks each run.
func (b *bench) verifiedCycle(seed int64) {
	b.cycle = b.cycle[:0]
	for pass := 0; pass < hashSeedsPerCycle; pass++ {
		hs := hashSeed(seed, pass)
		for i := range b.items {
			o := b.run(i, hs, nil)
			if b.check(i, hs, o) {
				o.rep.Output = nil
				b.cycle = append(b.cycle, cycleRun{item: i, rep: o.rep})
			}
		}
	}
}

// check counts one run as attempted and, unless it succeeded with the right
// answer, as failed. The first run of a (query, hash seed) is compared to the
// reference answer and fixes the fingerprint every later one must repeat.
func (b *bench) check(i int, hs int64, o outcome) bool {
	b.attempted++
	err := o.err
	if err == nil {
		k := refKey{i, hs}
		if ref, seen := b.refs[k]; !seen {
			b.refs[k] = o.key
			if !b.items[i].verify(o) {
				err = errors.New("output differs from the reference answer")
			}
		} else if o.key != ref {
			err = errors.New("fingerprint differs from the first run of this query and hash seed")
		}
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s (hash seed %d): %v\n", b.w.name, b.items[i].name, hs, err)
	}
	return err == nil
}

// run issues one Run of item i and waits for it: the load generator is closed
// loop with one client. Over TCP the client is one caller per rank (SPMD);
// the run fails unless both ranks agree and the wire charged what the model
// billed.
func (b *bench) run(i int, hs int64, tr *mpcquery.Trace) outcome {
	it := b.items[i]
	if b.rts == nil {
		return runRank(it, hs, nil, tr)
	}
	before := b.wireStats().chargedBits
	peer := make(chan outcome, 1)
	go func() { peer <- runRank(it, hs, b.rts[1], nil) }()
	o := runRank(it, hs, b.rts[0], tr)
	po := <-peer
	switch {
	case o.err != nil:
	case po.err != nil:
		o.err = fmt.Errorf("rank 1: %w", po.err)
	case po.key != o.key:
		o.err = errors.New("the two ranks returned different fingerprints")
	default:
		if charged := b.wireStats().chargedBits - before; float64(charged) != o.rep.TotalBits {
			o.err = fmt.Errorf("ranks charged %d bits on the wire, report bills %.0f", charged, o.rep.TotalBits)
		}
	}
	return o
}

// wireTotals is the wire accounting of all ranks together.
type wireTotals struct {
	wireBytes, billedBytes, dataFrames, ctrlFrames, retries, chargedBits int64
}

func (b *bench) wireStats() wireTotals {
	var t wireTotals
	for _, rt := range b.rts {
		ws := rt.WireStats()
		t.wireBytes += ws.WireBytes
		t.billedBytes += ws.BilledPayloadBytes
		t.dataFrames += ws.DataFrames
		t.ctrlFrames += ws.CtrlFrames
		t.retries += ws.Resends + ws.Redials
		t.chargedBits += ws.ChargedBits()
	}
	return t
}

func (t wireTotals) minus(u wireTotals) wireTotals {
	return wireTotals{t.wireBytes - u.wireBytes, t.billedBytes - u.billedBytes, t.dataFrames - u.dataFrames,
		t.ctrlFrames - u.ctrlFrames, t.retries - u.retries, t.chargedBits - u.chargedBits}
}

// runRank is one rank's Run (rt nil: the in-process runtime).
func runRank(it *item, hs int64, rt *mpcquery.DistributedRuntime, tr *mpcquery.Trace) outcome {
	opts := []mpcquery.RunOption{
		mpcquery.WithServers(servers), mpcquery.WithSeed(hs), mpcquery.WithStrategy(it.strategy()),
		mpcquery.WithRuntime(rt), mpcquery.WithTrace(tr),
	}
	if it.agg != nil {
		opts = append(opts, mpcquery.WithAggregate(it.agg.Op, it.agg.Of, it.agg.GroupBy...))
	}
	var sink *mpcquery.DigestSink
	if it.stream {
		sink = &mpcquery.DigestSink{}
		opts = append(opts, mpcquery.WithStreaming(true), mpcquery.WithOutputSink(sink))
	}
	t0 := time.Now()
	rep, err := mpcquery.Run(it.data.q, it.data.db, opts...)
	o := outcome{rep: rep, start: t0, wall: time.Since(t0), err: err}
	if err == nil {
		o.key = rep.Fingerprint()
		if sink != nil {
			o.sinkRows = sink.Tuples()
			o.key += fmt.Sprintf("|sink=%d#%016x", sink.Tuples(), sink.Digest())
		}
	}
	return o
}

// passStats accumulates the timings of measured passes.
type passStats struct {
	passes   int
	perQuery [][]float64 // wall ms of every run, per item
	passMS   []float64   // Σ run walls of each pass: the time the engine served the client
	tuples   int         // Σ input tuples of all runs
}

// onePass runs the query list once at the pass's hash seed. With traced set,
// every run carries a fresh program trace, handed to traced afterwards.
func (b *bench) onePass(seed int64, pass int, st *passStats, traced func(tr *mpcquery.Trace, o outcome)) {
	if st.perQuery == nil {
		st.perQuery = make([][]float64, len(b.items))
	}
	hs := hashSeed(seed, pass)
	busy := 0.0
	for i, it := range b.items {
		var tr *mpcquery.Trace
		if traced != nil {
			tr = mpcquery.NewTrace()
		}
		o := b.run(i, hs, tr)
		if b.check(i, hs, o) && traced != nil {
			traced(tr, o)
		}
		st.perQuery[i] = append(st.perQuery[i], ms(o.wall))
		busy += ms(o.wall)
		st.tuples += it.data.tuples
	}
	st.passMS = append(st.passMS, busy)
	st.passes++
}

// runMS is the workload's headline time: the geometric mean over the query
// list of each query's q-quantile, so a cheap query counts as much as an
// expensive one.
func (st *passStats) runMS(q float64) float64 {
	per := make([]float64, len(st.perQuery))
	for i, xs := range st.perQuery {
		per[i] = quantile(xs, q)
	}
	return geomean(per)
}

// measureEndToEnd is the measured phase: tracing off, end-to-end metrics only.
func measureEndToEnd(w *workload, opt options) (*workloadResult, error) {
	m := opt.size(w)
	var b *bench
	setupS := make([]float64, 0, setupRepeats)
	cal := newCalibrator()
	var setupCal, runCal []float64
	for range setupRepeats {
		if b != nil {
			b.close()
		}
		for range setupCalibrations {
			setupCal = append(setupCal, cal.sample())
		}
		t0 := time.Now()
		var err error
		if b, err = setup(w, m, opt.seed); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer b.close()
	runtime.GC() // the discarded set-ups are not the measured phase's debt

	var st passStats
	for start := time.Now(); opt.more(start, st.passes); {
		runCal = append(runCal, cal.sample())
		b.onePass(opt.seed, st.passes, &st, nil)
	}

	var totalBits, inputBits, peak float64
	loads := make([]float64, 0, len(b.cycle))
	for _, c := range b.cycle {
		totalBits += c.rep.TotalBits
		inputBits += c.rep.InputBits
		loads = append(loads, c.rep.MaxLoadBits/(c.rep.InputBits/servers))
		peak = max(peak, float64(c.rep.PeakBufferedBytes))
	}
	res := b.result(m, 0, &st)
	res.setAll(map[string]float64{
		"setup_s":            median(setupS) * speedScale(setupCal),
		"run_ms":             st.runMS(0.5) * speedScale(runCal),
		"run_p90_over_p50":   st.runMS(0.9) / st.runMS(0.5),
		"tuples_per_s":       float64(st.tuples/st.passes) / (median(st.passMS) / 1e3 * speedScale(runCal)),
		"bits_per_input_bit": ratio(totalBits, inputBits),
		"load_over_ideal":    geomean(loads),
		"peak_buffered_mb":   peak / 1e6,
	})
	res.Calibration = &calibration{NominalMS: calibrationNominalMS, SetupMS: median(setupCal), RunMS: median(runCal)}
	return res, nil
}
