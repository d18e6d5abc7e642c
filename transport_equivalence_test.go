package mpcquery

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"mpcquery/internal/transport"
)

// distScenario is one strategy-family workload, rebuildable from fixed
// generator seeds so every rank (and the in-process reference) constructs
// an identical database — exactly what real worker processes do.
type distScenario struct {
	name string
	run  func(extra ...RunOption) (*Report, error)
}

// distScenarios covers every built-in strategy family: the distributed
// runtime is a delivery substrate under all of them, so all of them must
// be bit-identical across it.
func distScenarios() []distScenario {
	const seed = 7
	mk := func(q func() *Query, db func() *Database, s Strategy, fixed ...RunOption) distScenario {
		return distScenario{run: func(extra ...RunOption) (*Report, error) {
			opts := append([]RunOption{
				WithStrategy(s), WithServers(16), WithSeed(seed),
			}, fixed...)
			return Run(q(), db(), append(opts, extra...)...)
		}}
	}
	named := func(name string, sc distScenario) distScenario { sc.name = name; return sc }
	starDB := func() *Database {
		return SkewedStarDatabase(rand.New(rand.NewSource(102)), 2, 120, 1<<12, map[int64]int{5: 40})
	}
	chainDB := func() *Database {
		return ChainMatchingDatabase(rand.New(rand.NewSource(103)), 4, 120, 1<<12)
	}
	matchDB := func(q func() *Query, n int64) func() *Database {
		return func() *Database { return MatchingDatabase(rand.New(rand.NewSource(104)), q(), 120, n) }
	}
	star2 := func() *Query { return Star(2) }
	chain4 := func() *Query { return Chain(4) }

	return []distScenario{
		named("hypercube", mk(Triangle, matchDB(Triangle, 1<<12), HyperCube())),
		named("hypercube-oblivious", mk(Triangle, matchDB(Triangle, 1<<12), HyperCubeOblivious())),
		named("hypercube-shares", mk(star2, starDB, HyperCubeShares(4, 2, 2))),
		named("skewed-star", mk(star2, starDB, SkewedStar())),
		named("skewed-star-sampled", mk(star2, starDB, SkewedStarSampled(30))),
		named("skewed-triangle", mk(Triangle, goldenTriDB, SkewedTriangle())),
		named("skewed-generic", mk(Triangle, goldenTriDB, SkewedGeneric())),
		named("chain-plan", mk(chain4, chainDB, ChainPlan(0.5))),
		named("greedy-plan", mk(chain4, chainDB, GreedyPlan(0.5))),
		named("greedy-plan-skew", mk(chain4, chainDB, GreedyPlanSkewAware(0.5))),
		named("auto", mk(chain4, chainDB, Auto())),
		named("selfjoin", distScenario{run: func(extra ...RunOption) (*Report, error) {
			edges := NewRelation("E", 2)
			rng := rand.New(rand.NewSource(105))
			for i := 0; i < 120; i++ {
				edges.Append(rng.Int63n(48), rng.Int63n(48))
			}
			db := NewDatabase(1 << 12)
			db.Add(edges)
			sj := SelfJoin("paths",
				Atom{Name: "E", Vars: []string{"x", "y"}},
				Atom{Name: "E", Vars: []string{"y", "z"}})
			return Run(nil, db, append([]RunOption{
				WithStrategy(sj), WithServers(16), WithSeed(seed)}, extra...)...)
		}}),
		named("hypercube-agg-count", mk(star2, starDB, HyperCube(),
			WithAggregate(AggCount, "", "z"))),
		named("hypercube-agg-sum-nopushdown", mk(star2, starDB, HyperCube(),
			WithAggregate(AggSum, "x1"), WithAggregatePushdown(false))),
		named("chain-plan-agg-count", mk(chain4, chainDB, ChainPlan(0.5),
			WithAggregate(AggCount, "", Chain(4).Vars()[0]))),
		// Byte-exact scenario: with a 16-bit domain (bitsPerValue a multiple
		// of 8) and no value outgrowing its width, charged model bits equal
		// billed payload bytes ×8 exactly, not just within padding.
		named("hypercube-16bit-exact", mk(Triangle, matchDB(Triangle, 1<<16), HyperCube())),
	}
}

// TestDistributedMatchesInProcess is the PR's headline contract at the
// public API: for every strategy family, a fixed-seed workload run by a
// 3-rank TCP-loopback worker group yields, at every rank, a Report
// bit-identical (Fingerprint) to the plain in-process run — and the
// ranks' summed wire-charged bits equal the Report's TotalBits exactly,
// with charged bits never exceeding billed payload bytes ×8.
func TestDistributedMatchesInProcess(t *testing.T) {
	const ranks = 3
	for _, sc := range distScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			want, err := sc.run()
			if err != nil {
				t.Fatal(err)
			}
			wantFP := want.Fingerprint()

			addrs, err := transport.FreeLoopbackAddrs(ranks)
			if err != nil {
				t.Fatal(err)
			}
			var (
				wg    sync.WaitGroup
				fps   [ranks]string
				stats [ranks]TransportWireStats
				errs  [ranks]error
			)
			for r := 0; r < ranks; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rt, err := DialRuntime(r, addrs)
					if err != nil {
						errs[r] = err
						return
					}
					defer rt.Close()
					rep, err := sc.run(WithRuntime(rt))
					if err != nil {
						errs[r] = err
						return
					}
					fps[r] = rep.Fingerprint()
					stats[r] = rt.WireStats()
				}(r)
			}
			wg.Wait()
			for r, err := range errs {
				if err != nil {
					t.Fatalf("rank %d: %v", r, err)
				}
			}
			var charged, billed, wire int64
			for r := 0; r < ranks; r++ {
				if fps[r] != wantFP {
					t.Errorf("rank %d fingerprint diverged from in-process run\n got %s\nwant %s", r, fps[r], wantFP)
				}
				if c, b := stats[r].ChargedBits(), stats[r].BilledPayloadBytes*8; c > b {
					t.Errorf("rank %d charged %d bits > billed payload %d bits", r, c, b)
				}
				charged += stats[r].ChargedBits()
				billed += stats[r].BilledPayloadBytes * 8
				wire += stats[r].WireBytes
			}
			if got := float64(charged); got != want.TotalBits {
				t.Errorf("Σ ranks charged bits = %v, Report.TotalBits = %v", got, want.TotalBits)
			}
			if sc.name == "hypercube-16bit-exact" && charged != billed {
				t.Errorf("16-bit domain: charged %d bits != billed %d bits (padding should vanish)", charged, billed)
			}
			// Every record frame a rank ships goes to one peer, and every
			// output gather to every peer once: the sockets carry at least
			// the shipped record bytes — payload and framing — and the
			// gathers, besides the control frames.
			var shipped, gathered, ctrl int64
			for r := 0; r < ranks; r++ {
				shipped += stats[r].PayloadBytes + stats[r].HeaderBytes
				gathered += stats[r].GatherBytes
				ctrl += stats[r].CtrlFrames
			}
			if ctrl == 0 || wire < shipped+gathered {
				t.Errorf("wire accounting off: wire=%d shipped=%d gathered=%d ctrl=%d", wire, shipped, gathered, ctrl)
			}
		})
	}
}

// TestDistributedPeerFailure: a rank that joins the group and then goes
// away fails the other rank's Run with the ErrPeerUnavailable sentinel —
// surfaced as an error through the public API, never a panic, and not
// wrapped as an opaque StrategyError.
func TestDistributedPeerFailure(t *testing.T) {
	addrs, err := transport.FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	short := []RuntimeOption{
		WithRoundTimeout(300 * time.Millisecond),
		WithDialBudget(4, 10*time.Millisecond),
		WithWriteRetries(1),
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rt, err := DialRuntime(1, addrs, short...)
		if err != nil {
			return // rank 0 already failed; its assertion reports
		}
		// Join the group, then leave without ever delivering a round.
		time.Sleep(50 * time.Millisecond)
		rt.Close()
	}()
	rt, err := DialRuntime(0, addrs, short...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer rt.Close()
	q := Triangle()
	db := MatchingDatabase(rand.New(rand.NewSource(1)), q, 60, 1<<12)
	_, err = Run(q, db, WithServers(8), WithRuntime(rt))
	wg.Wait()
	if err == nil {
		t.Fatal("Run with a vanished peer succeeded; want ErrPeerUnavailable")
	}
	if !errors.Is(err, ErrPeerUnavailable) && !errors.Is(err, ErrRuntimeClosed) {
		t.Fatalf("err = %v; want ErrPeerUnavailable or ErrRuntimeClosed", err)
	}
	var se *StrategyError
	if errors.As(err, &se) {
		t.Fatalf("peer failure surfaced as StrategyError: %v", err)
	}
}
