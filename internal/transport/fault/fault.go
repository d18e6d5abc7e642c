// Package fault provides deterministic fault injection for the transport
// layer: a seeded schedule of frame drops, delays, duplicate deliveries,
// connection resets, rank crashes and slow-peer straggling. Every decision
// is a pure function of (seed, rank, peer, cluster, round) — no clock, no
// global RNG — so a chaos run is exactly reproducible, every rank computes
// the identical schedule from shared configuration, and a recovery replay
// can be exempted (faults fire only at attempt epoch 0) so it provably
// converges. The root chaos matrix tests (TestChaosMatrix,
// TestChaosMatrixStreaming) are built on this package.
package fault

import (
	"fmt"
	"time"

	"mpcquery/internal/engine"
	"mpcquery/internal/transport"
)

// Plan is a deterministic fault schedule. Rates are per-10000 write
// attempts (so 100 = 1%); each (rank, peer, cluster, round) site draws an
// independent, seeded, reproducible hash. The zero Plan (with CrashRank
// and StragglerRank left -1 via NewPlan) injects nothing.
//
// Wire faults (drop/dup/reset/delay) fire only on a write's first attempt
// and only at attempt epoch 0: retries of a torn write must be allowed to
// succeed (that is the machinery under test), and a recovery replay must
// run fault-free or recovery could never converge. The crash fires once,
// at exactly (CrashRank, CrashCluster, CrashRound), epoch 0.
type Plan struct {
	// Seed keys every decision hash. Two plans with different seeds fault
	// different sites at the same rates.
	Seed int64

	// DropPer10k tears the write: a prefix of the frame stream is sent,
	// then the connection dies — the peer sees a truncated stream, the
	// writer redials and resends, sequence numbers dedupe.
	DropPer10k int
	// DupPer10k ships the round's frame stream twice back-to-back;
	// receiver-side dedup must absorb it.
	DupPer10k int
	// ResetPer10k kills the connection before anything is written,
	// forcing the redial path.
	ResetPer10k int
	// DelayPer10k stalls the write by Delay.
	DelayPer10k int
	// Delay is the stall applied to delayed writes (and the straggler's
	// per-round lag). Default 0 means no stall even when scheduled.
	Delay time.Duration

	// CrashRank, when >= 0, makes exactly that rank fail its delivery at
	// (CrashCluster, CrashRound) with ErrPeerUnavailable — the
	// deterministic stand-in for a process dying mid-run. With recovery
	// enabled the run replays at epoch 1, where the crash does not re-fire.
	CrashRank    int
	CrashCluster uint32
	CrashRound   uint32

	// StragglerRank, when >= 0, sleeps Delay at the start of every round
	// on that rank — the persistent slow peer of a heterogeneous fleet.
	StragglerRank int
}

// NewPlan returns a Plan with the given seed and no faults scheduled
// (crash and straggler disabled, all rates zero). Callers fill in the
// faults they want.
func NewPlan(seed int64) *Plan {
	return &Plan{Seed: seed, CrashRank: -1, StragglerRank: -1}
}

// mix is a splitmix64 finalizer round: a high-quality avalanche of one
// 64-bit word, the standard trick for turning coordinates into an
// independent-looking hash without any RNG state.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// draw hashes a decision site into [0, 10000). tag separates the fault
// kinds so e.g. a drop and a dup never correlate.
func (p *Plan) draw(tag uint64, rank, peer int, cluster, round uint32) int {
	h := mix(uint64(p.Seed) ^ tag)
	h = mix(h ^ uint64(rank)<<32 ^ uint64(peer))
	h = mix(h ^ uint64(cluster)<<32 ^ uint64(round))
	return int(h % 10000)
}

const (
	tagDrop  = 0x64726f70 // "drop"
	tagDup   = 0x6475700a // "dup"
	tagReset = 0x72737400 // "rst"
	tagDelay = 0x646c6179 // "dlay"
)

// WriteFault implements transport.FaultInjector.
func (p *Plan) WriteFault(rank, peer, epoch int, cluster, round uint32, attempt int) (transport.FaultAction, time.Duration) {
	if p == nil || epoch != 0 || attempt != 0 {
		return transport.FaultNone, 0
	}
	var delay time.Duration
	if p.DelayPer10k > 0 && p.Delay > 0 && p.draw(tagDelay, rank, peer, cluster, round) < p.DelayPer10k {
		delay = p.Delay
	}
	if p.DropPer10k > 0 && p.draw(tagDrop, rank, peer, cluster, round) < p.DropPer10k {
		return transport.FaultDrop, delay
	}
	if p.DupPer10k > 0 && p.draw(tagDup, rank, peer, cluster, round) < p.DupPer10k {
		return transport.FaultDup, delay
	}
	if p.ResetPer10k > 0 && p.draw(tagReset, rank, peer, cluster, round) < p.ResetPer10k {
		return transport.FaultReset, delay
	}
	return transport.FaultNone, delay
}

// ErrInjectedCrash is the cause carried by a Plan-scheduled rank crash.
// The transport wraps it in ErrPeerUnavailable, so recovery handles it
// exactly like a real dead peer.
var ErrInjectedCrash = crashError{}

type crashError struct{}

func (crashError) Error() string { return "fault: scheduled rank crash" }

// DeliverFault implements transport.FaultInjector.
func (p *Plan) DeliverFault(rank, epoch int, cluster, round uint32) (time.Duration, error) {
	if p == nil || epoch != 0 {
		return 0, nil
	}
	var delay time.Duration
	if p.StragglerRank == rank && p.Delay > 0 {
		delay = p.Delay
	}
	if p.CrashRank == rank && p.CrashCluster == cluster && p.CrashRound == round {
		return delay, ErrInjectedCrash
	}
	return delay, nil
}

// Wrap installs the plan on a transport. A *transport.Session gets the
// plan as its fault injector (returning the session itself — the wire
// faults flow through the real retry/dedup/recovery machinery). Any other
// transport — including the in-process default — is wrapped so that
// DeliverFault's crash/straggle schedule still applies before each
// delivery; wire-level actions are meaningless without a wire and are
// skipped. Wrap(nil, plan) returns a faulty in-process transport stand-in
// (nil engine.Transport semantics are preserved by returning nil when the
// plan is nil too).
func Wrap(t engine.Transport, p *Plan) engine.Transport {
	if p == nil {
		return t
	}
	if s, ok := t.(*transport.Session); ok {
		s.SetFaultInjector(p)
		return s
	}
	return &localTransport{inner: t, plan: p}
}

// localTransport applies a Plan's delivery-level faults (crash,
// straggler) to a non-session transport, including the nil (in-process)
// one. It mirrors the session's attempt-epoch semantics via AdvanceEpoch
// so the recovery supervisor can replay past an injected crash without a
// wire. Its inner transport is never a Session (Inject hands a session its
// injector instead), so its links own every server.
type localTransport struct {
	inner engine.Transport
	plan  *Plan
	epoch int
	rank  int

	nextCluster uint32
}

// AdvanceEpoch moves the transport to the next attempt epoch (Plan faults
// fire only at epoch 0) and rewinds cluster identities, mirroring
// Session.Rewind for the in-process case.
func (lt *localTransport) AdvanceEpoch() {
	lt.epoch++
	lt.nextCluster = 0
}

// Attach implements engine.Transport.
func (lt *localTransport) Attach(p, bitsPerValue int) (engine.Link, error) {
	id := lt.nextCluster
	lt.nextCluster++
	var inner engine.Link
	if lt.inner != nil {
		l, err := lt.inner.Attach(p, bitsPerValue)
		if err != nil {
			return nil, err
		}
		inner = l
	}
	return &localLink{lt: lt, id: id, inner: inner}, nil
}

type localLink struct {
	lt    *localTransport
	id    uint32
	inner engine.Link
}

func (l *localLink) Close() error {
	if l.inner != nil {
		return l.inner.Close()
	}
	return nil
}

func (l *localLink) Deliver(io *engine.DeliveryRound) error {
	lt := l.lt
	delay, crash := lt.plan.DeliverFault(lt.rank, lt.epoch, l.id, uint32(io.Round))
	if delay > 0 {
		time.Sleep(delay)
	}
	if crash != nil {
		// Same error shape as the session's injected crash, so the
		// recovery supervisor treats both identically.
		return fmt.Errorf("%w: rank %d: cluster %d round %d: injected crash: %w",
			transport.ErrPeerUnavailable, lt.rank, l.id, io.Round, crash)
	}
	if l.inner != nil {
		return l.inner.Deliver(io)
	}
	engine.DeliverLocal(io)
	return nil
}
