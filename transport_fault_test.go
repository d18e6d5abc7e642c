package mpcquery

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"mpcquery/internal/transport"
)

// chaosFamilies picks the scenarios the chaos suite sweeps out of the
// shared distScenarios catalogue: the one-round HyperCube family, every
// skew-aware shape (exact and sampled statistics — the sampled star runs a
// statistics round and a data round on one cluster — the triangle and the
// generalized pattern algorithm), a plain and a skew-aware multi-round
// plan, the Auto advisor, the self-join view path, and an aggregate run
// with and without pushdown. The fault machinery sits below all of them
// identically; what differs is how many rounds and clusters a fault can
// land in.
func chaosFamilies() []distScenario {
	keep := map[string]bool{
		"hypercube":                    true,
		"skewed-star":                  true,
		"skewed-star-sampled":          true,
		"skewed-triangle":              true,
		"skewed-generic":               true,
		"chain-plan":                   true,
		"greedy-plan-skew":             true,
		"auto":                         true,
		"selfjoin":                     true,
		"hypercube-agg-count":          true,
		"hypercube-agg-sum-nopushdown": true,
	}
	var out []distScenario
	for _, sc := range distScenarios() {
		if keep[sc.name] {
			out = append(out, sc)
		}
	}
	return out
}

// chaosKind is one fault family of the matrix: a plan constructor plus
// the recovery budget its runs need (only the crash kind needs replays).
type chaosKind struct {
	name     string
	plan     func() *FaultPlan
	recovery int
}

func chaosKinds() []chaosKind {
	return []chaosKind{
		{name: "drop", plan: func() *FaultPlan {
			p := NewFaultPlan(42)
			p.DropPer10k = 4000 // 40% of round writes torn mid-stream
			return p
		}},
		{name: "delay", plan: func() *FaultPlan {
			p := NewFaultPlan(43)
			p.DelayPer10k = 4000
			p.Delay = 2 * time.Millisecond
			p.StragglerRank = 2 // rank 2 additionally lags every round
			return p
		}},
		{name: "dup", plan: func() *FaultPlan {
			p := NewFaultPlan(44)
			p.DupPer10k = 4000 // 40% of round writes shipped twice
			return p
		}},
		{name: "reset", plan: func() *FaultPlan {
			p := NewFaultPlan(45)
			p.ResetPer10k = 4000 // 40% of round writes lose the conn first
			return p
		}},
		{name: "crash", plan: func() *FaultPlan {
			p := NewFaultPlan(46)
			p.CrashRank = 1 // rank 1 dies at the very first delivery...
			p.CrashCluster = 0
			p.CrashRound = 0
			return p
		}, recovery: 2}, // ...and the whole group replays past it
	}
}

// TestChaosMatrix is the PR's headline robustness contract: for every
// strategy family under every fault family, a 3-rank loopback group with
// the seeded fault schedule installed still produces, at every rank, a
// Report bit-identical (Fingerprint) to the fault-free in-process run —
// and the accounting identity Σ ranks ChargedBits == Report.TotalBits
// holds exactly, with abandoned attempts metered separately rather than
// double-billed. Faults must actually fire (FaultsInjected > 0), or the
// matrix would pass vacuously.
func TestChaosMatrix(t *testing.T) {
	const ranks = 3
	for _, sc := range chaosFamilies() {
		for _, k := range chaosKinds() {
			sc, k := sc, k
			t.Run(sc.name+"/"+k.name, func(t *testing.T) {
				t.Parallel()
				want, err := sc.run()
				if err != nil {
					t.Fatal(err)
				}
				wantFP := want.Fingerprint()

				addrs, err := transport.FreeLoopbackAddrs(ranks)
				if err != nil {
					t.Fatal(err)
				}
				rtOpts := []RuntimeOption{
					WithRoundTimeout(5 * time.Second),
					WithWriteRetries(4), // drop/reset schedules can hit one peer repeatedly
				}
				var (
					wg    sync.WaitGroup
					reps  [ranks]*Report
					stats [ranks]TransportWireStats
					errs  [ranks]error
				)
				for r := 0; r < ranks; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						rt, err := DialRuntime(r, addrs, rtOpts...)
						if err != nil {
							errs[r] = err
							return
						}
						defer rt.Close()
						rep, err := sc.run(WithRuntime(rt),
							WithFaultInjection(k.plan()),
							WithRecovery(k.recovery))
						if err != nil {
							errs[r] = err
							return
						}
						reps[r] = rep
						stats[r] = rt.WireStats()
					}(r)
				}
				wg.Wait()
				for r, err := range errs {
					if err != nil {
						t.Fatalf("rank %d: %v", r, err)
					}
				}
				var charged, faults, abandoned int64
				for r := 0; r < ranks; r++ {
					if got := reps[r].Fingerprint(); got != wantFP {
						t.Errorf("rank %d fingerprint diverged under %s faults\n got %s\nwant %s",
							r, k.name, got, wantFP)
					}
					charged += stats[r].ChargedBits()
					faults += stats[r].FaultsInjected
					abandoned += stats[r].AbandonedBytes
				}
				if got := float64(charged); got != want.TotalBits {
					t.Errorf("Σ ranks charged bits = %v, Report.TotalBits = %v (abandoned must not bill)",
						got, want.TotalBits)
				}
				if faults == 0 {
					t.Errorf("no faults fired — the %s schedule is vacuous at these rates", k.name)
				}
				if k.recovery > 0 {
					// The crash kills attempt 0 group-wide: every rank must
					// report the replay, and the ranks that wrote attempt-0
					// frames must have moved them to abandoned.
					for r := 0; r < ranks; r++ {
						if reps[r].Recovered < 1 {
							t.Errorf("rank %d Recovered = %d, want >= 1 after injected crash", r, reps[r].Recovered)
						}
					}
					if abandoned == 0 {
						t.Errorf("crash recovery left AbandonedBytes = 0; abandoned attempt frames unaccounted")
					}
				} else if abandoned != 0 {
					t.Errorf("fault kind %s abandoned %d bytes without any recovery replay", k.name, abandoned)
				}
			})
		}
	}
}

// TestChaosMatrixStreaming re-runs the chaos matrix with streaming on and
// a tiny chunk size, so faults land *mid-chunk*: frames torn, duplicated,
// or reset between the chunks of one logical round, and a crash that
// abandons a half-streamed attempt. The contract is unchanged — every rank
// recovers to the fault-free barrier run's exact fingerprint, Σ ranks
// ChargedBits == TotalBits (duplicate and abandoned chunk traffic backed
// out of the billed accounting exactly), and crash replays move the
// abandoned chunks to AbandonedBytes rather than double-billing them.
func TestChaosMatrixStreaming(t *testing.T) {
	const ranks = 3
	families := map[string]bool{
		"hypercube":           true,
		"skewed-triangle":     true,
		"chain-plan":          true,
		"hypercube-agg-count": true,
	}
	kinds := map[string]bool{"drop": true, "dup": true, "reset": true, "crash": true}
	for _, sc := range chaosFamilies() {
		if !families[sc.name] {
			continue
		}
		for _, k := range chaosKinds() {
			if !kinds[k.name] {
				continue
			}
			sc, k := sc, k
			t.Run(sc.name+"/"+k.name, func(t *testing.T) {
				t.Parallel()
				want, err := sc.run()
				if err != nil {
					t.Fatal(err)
				}
				wantFP := want.Fingerprint()

				addrs, err := transport.FreeLoopbackAddrs(ranks)
				if err != nil {
					t.Fatal(err)
				}
				rtOpts := []RuntimeOption{
					WithRoundTimeout(5 * time.Second),
					WithWriteRetries(4),
				}
				var (
					wg    sync.WaitGroup
					reps  [ranks]*Report
					stats [ranks]TransportWireStats
					errs  [ranks]error
				)
				for r := 0; r < ranks; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						rt, err := DialRuntime(r, addrs, rtOpts...)
						if err != nil {
							errs[r] = err
							return
						}
						defer rt.Close()
						rep, err := sc.run(WithRuntime(rt),
							WithStreaming(true), withStreamChunk(5),
							WithFaultInjection(k.plan()),
							WithRecovery(k.recovery))
						if err != nil {
							errs[r] = err
							return
						}
						reps[r] = rep
						stats[r] = rt.WireStats()
					}(r)
				}
				wg.Wait()
				for r, err := range errs {
					if err != nil {
						t.Fatalf("rank %d: %v", r, err)
					}
				}
				var charged, faults, abandoned int64
				for r := 0; r < ranks; r++ {
					if got := reps[r].Fingerprint(); got != wantFP {
						t.Errorf("rank %d fingerprint diverged under mid-chunk %s faults\n got %s\nwant %s",
							r, k.name, got, wantFP)
					}
					charged += stats[r].ChargedBits()
					faults += stats[r].FaultsInjected
					abandoned += stats[r].AbandonedBytes
				}
				if got := float64(charged); got != want.TotalBits {
					t.Errorf("Σ ranks charged bits = %v, Report.TotalBits = %v (chunk faults must not bill)",
						got, want.TotalBits)
				}
				if faults == 0 {
					t.Errorf("no faults fired — the %s schedule is vacuous at these rates", k.name)
				}
				if k.recovery > 0 {
					for r := 0; r < ranks; r++ {
						if reps[r].Recovered < 1 {
							t.Errorf("rank %d Recovered = %d, want >= 1 after injected crash", r, reps[r].Recovered)
						}
					}
					if abandoned == 0 {
						t.Errorf("crash recovery left AbandonedBytes = 0; abandoned chunk frames unaccounted")
					}
				} else if abandoned != 0 {
					t.Errorf("fault kind %s abandoned %d bytes without any recovery replay", k.name, abandoned)
				}
			})
		}
	}
}

// TestFaultScheduleDeterministic pins the plan as a pure function: the
// same seed draws the same faults at the same sites, a different seed
// draws a different schedule, and neither replays (epoch > 0) nor write
// retries (attempt > 0) ever see a wire fault.
func TestFaultScheduleDeterministic(t *testing.T) {
	mk := func(seed int64) *FaultPlan {
		p := NewFaultPlan(seed)
		p.DropPer10k = 1500
		p.DupPer10k = 1500
		p.ResetPer10k = 1500
		p.DelayPer10k = 1500
		p.Delay = time.Millisecond
		return p
	}
	a, b, c := mk(7), mk(7), mk(8)
	same, diff := 0, 0
	for rank := 0; rank < 3; rank++ {
		for peer := 0; peer < 3; peer++ {
			for round := uint32(0); round < 64; round++ {
				actA, delA := a.WriteFault(rank, peer, 0, 0, round, 0)
				actB, delB := b.WriteFault(rank, peer, 0, 0, round, 0)
				if actA != actB || delA != delB {
					t.Fatalf("same seed diverged at (%d,%d,%d): %v/%v vs %v/%v",
						rank, peer, round, actA, delA, actB, delB)
				}
				actC, _ := c.WriteFault(rank, peer, 0, 0, round, 0)
				if actA == actC {
					same++
				} else {
					diff++
				}
				// Replays and retries run fault-free by construction.
				if act, del := a.WriteFault(rank, peer, 1, 0, round, 0); act != transport.FaultNone || del != 0 {
					t.Fatalf("epoch 1 drew a fault at (%d,%d,%d)", rank, peer, round)
				}
				if act, del := a.WriteFault(rank, peer, 0, 0, round, 1); act != transport.FaultNone || del != 0 {
					t.Fatalf("write attempt 1 drew a fault at (%d,%d,%d)", rank, peer, round)
				}
			}
		}
	}
	if diff == 0 {
		t.Fatalf("different seeds drew identical schedules over %d sites", same+diff)
	}
}

// runAgainstSilentPeer joins a 2-rank group whose rank 1 completes the
// handshake and then sits silent — the wedged-peer shape — and returns
// rank 0's Run error after the given round timeout. The optional hook
// receives rank 0's runtime once dialed (the Close-drain test uses it).
func runAgainstSilentPeer(t *testing.T, hook func(*DistributedRuntime), timeout time.Duration, extra ...RunOption) error {
	t.Helper()
	addrs, err := transport.FreeLoopbackAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	short := []RuntimeOption{
		WithRoundTimeout(timeout),
		WithDialBudget(40, 5*time.Millisecond),
	}
	done := make(chan struct{})
	var silent *DistributedRuntime
	var silentErr error
	go func() {
		defer close(done)
		silent, silentErr = DialRuntime(1, addrs, short...)
		// Connected, never delivers: the peer is up but wedged.
	}()
	rt, err := DialRuntime(0, addrs, short...)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() {
		rt.Close()
		<-done
		if silentErr == nil {
			silent.Close()
		}
	})
	if hook != nil {
		hook(rt)
	}
	q := Triangle()
	db := MatchingDatabase(rand.New(rand.NewSource(1)), q, 60, 1<<12)
	_, err = Run(q, db, append([]RunOption{WithServers(8), WithRuntime(rt)}, extra...)...)
	return err
}

// TestRunContextDeadlineUnblocksWedgedRound pins context propagation
// through Cluster.Round: with a generous RoundTimeout, a request-scoped
// deadline still frees the run from a wedged peer at the deadline, with
// the context's own error surfaced (never a panic, never a wait for the
// full round timeout).
func TestRunContextDeadlineUnblocksWedgedRound(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := runAgainstSilentPeer(t, nil, 30*time.Second, WithContext(ctx))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Run against a silent peer succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v; want context.DeadlineExceeded", err)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("deadline-bounded run took %v; the 30s round timeout governed instead", elapsed)
	}
}

// TestPeerErrorCarriesContext pins the error-context satellite: when a
// peer that joined the group never delivers its round, the surviving
// rank's error (a) satisfies errors.Is(ErrPeerUnavailable), and (b) names
// the failing rank, the cluster and round that died, and the peer's
// address — the coordinates an operator greps logs by.
func TestPeerErrorCarriesContext(t *testing.T) {
	err := runAgainstSilentPeer(t, nil, 400*time.Millisecond)
	if err == nil {
		t.Fatal("Run against a silent peer succeeded")
	}
	if !errors.Is(err, ErrPeerUnavailable) {
		t.Fatalf("err = %v; want errors.Is(ErrPeerUnavailable)", err)
	}
	msg := err.Error()
	for _, wantSub := range []string{
		"rank 0",    // who observed the failure
		"cluster",   // which cluster died
		"round",     // which round died
		"127.0.0.1", // the missing peer's address
	} {
		if !strings.Contains(msg, wantSub) {
			t.Errorf("error %q missing %q", msg, wantSub)
		}
	}
}
