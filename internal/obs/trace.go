package obs

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"strings"
	"sync"
	"time"
)

// Trace captures one run's execution timeline: per-cluster round spans
// with phase timings and per-server bit accounting, compute phases,
// kernel-cache totals, wire deltas, and run-level instant events (recovery
// replays, injected faults). A Trace is attached to a run with the root
// WithTrace option; the engine and strategies populate it.
//
// All methods are safe for concurrent use, and every observation method
// tolerates a nil receiver as a no-op — the disabled path is a nil check.
//
// Two faces of the same data serve two different contracts:
//
//   - WriteChrome emits the full timeline (timestamps, durations) as
//     Chrome trace-event JSON for chrome://tracing / Perfetto.
//   - Structure renders only the deterministic skeleton — cluster
//     geometry, round names, per-server bits/tuples, phase counts,
//     kernel-cache totals, instant events — so two seeded runs of the same
//     query can be asserted structurally identical modulo timing.
type Trace struct {
	mu       sync.Mutex
	start    time.Time
	clusters []*ClusterTrace
	instants []Instant
	wire     []WireObservation
}

// NewTrace returns an empty trace whose clock starts now.
func NewTrace() *Trace {
	// obs is on the nondeterminism time allowlist: wall-clock offsets are
	// telemetry and never reach a fingerprint.
	return &Trace{start: time.Now()}
}

// KV is one ordered key/value pair of an Instant's arguments. A slice of
// KV (rather than a map) keeps instant rendering deterministic.
type KV struct {
	Key   string
	Value string
}

// Instant is a run-level point event, e.g. a recovery replay.
type Instant struct {
	Name   string
	Offset time.Duration // since the trace epoch
	Args   []KV
}

// WireObservation is the transport-layer delta attributed to one run:
// frames, bytes, and retry counts accumulated between the run's start and
// end on this rank's session. Frame/byte/resend counts depend on socket
// timing (write coalescing, redials), so wire observations appear in the
// Chrome export but are excluded from Structure.
type WireObservation struct {
	DataFrames         int64
	CtrlFrames         int64
	WireBytes          int64
	PayloadBytes       int64
	BilledPayloadBytes int64
	Redials            int64
	Resends            int64
}

// Instant records a run-level point event.
func (t *Trace) Instant(name string, args ...KV) {
	if t == nil {
		return
	}
	off := time.Since(t.start)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.instants = append(t.instants, Instant{Name: name, Offset: off, Args: append([]KV(nil), args...)})
}

// ObserveWire records a transport delta for this run.
func (t *Trace) ObserveWire(w WireObservation) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.wire = append(t.wire, w)
}

// NewCluster registers a cluster (p model servers, bitsPerValue-bit
// values) with the trace and returns its per-cluster sink. Returns nil —
// a valid no-op sink — when the trace itself is nil.
func (t *Trace) NewCluster(p, bitsPerValue int) *ClusterTrace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ct := &ClusterTrace{tr: t, id: len(t.clusters), p: p, bitsPerValue: bitsPerValue}
	t.clusters = append(t.clusters, ct)
	return ct
}

// ClusterTrace collects one cluster's rounds and compute phases. All
// observation methods are nil-receiver-safe no-ops.
type ClusterTrace struct {
	tr           *Trace
	id           int
	p            int
	bitsPerValue int

	mu            sync.Mutex
	rounds        []RoundObservation
	computePhases []ComputePhase
	kernelHits    int64
	kernelMisses  int64
	kernelSamples int
}

// RoundObservation is one communication round's record: the compute/emit
// phase and the delivery phase, with per-server timings and the
// per-destination bit/tuple accounting the load L is defined over.
type RoundObservation struct {
	Name string

	ComputeStart   time.Time
	ComputeSeconds float64
	DeliverStart   time.Time
	DeliverSeconds float64

	// ServerComputeSeconds[i] is server FirstServer+i's emit closure time:
	// the servers this process evaluated, all of them unless a transport
	// gave other processes a share. DestDeliverSeconds[d] is destination
	// d's local assembly time (zero where this process landed nothing).
	FirstServer          int
	ServerComputeSeconds []float64
	DestDeliverSeconds   []float64

	// RecvBits[d] / RecvTuples[d]: bits and tuples charged to destination
	// d this round. MaxRecvBits over d is the round's load.
	RecvBits   []float64
	RecvTuples []int

	MaxRecvBits     float64
	TotalRecvBits   float64
	MaxRecvTuples   int
	TotalRecvTuples int
	Aborted         bool

	// ChunkFlushes counts the streaming chunks a pipelined round flushed;
	// 0 in barrier mode and over a transport. Chunk granularity is
	// a wall-clock/memory concern, not an accounting one, so the count
	// appears in the Chrome export but is deliberately excluded from
	// Structure — streamed and barrier runs must render identically.
	ChunkFlushes int
}

// ComputePhase is one Cluster.Compute call (a local computation phase
// between rounds). ServerSeconds[i] is server FirstServer+i's share of it,
// as ServerComputeSeconds is a round's.
type ComputePhase struct {
	Start         time.Time
	Seconds       float64
	FirstServer   int
	ServerSeconds []float64
}

// Start reads the wall clock for a span of a traced cluster. On a nil
// ClusterTrace it returns the zero time and reads no clock: an untraced
// engine takes no timestamps at all.
func (ct *ClusterTrace) Start() time.Time {
	if ct == nil {
		return time.Time{}
	}
	return time.Now()
}

// Seconds returns the seconds elapsed since start, a time Start returned;
// 0, reading no clock, on a nil ClusterTrace.
func (ct *ClusterTrace) Seconds(start time.Time) float64 {
	if ct == nil {
		return 0
	}
	return time.Since(start).Seconds()
}

// ObserveRound appends one round's record. Slices are copied, so callers
// may reuse their buffers.
func (ct *ClusterTrace) ObserveRound(ro RoundObservation) {
	if ct == nil {
		return
	}
	ro.ServerComputeSeconds = append([]float64(nil), ro.ServerComputeSeconds...)
	ro.DestDeliverSeconds = append([]float64(nil), ro.DestDeliverSeconds...)
	ro.RecvBits = append([]float64(nil), ro.RecvBits...)
	ro.RecvTuples = append([]int(nil), ro.RecvTuples...)
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.rounds = append(ct.rounds, ro)
}

// ObserveCompute appends one local computation phase, with the time each
// evaluated server took, the first of them being firstServer. The slice is
// copied.
func (ct *ClusterTrace) ObserveCompute(start time.Time, seconds float64, firstServer int, serverSeconds []float64) {
	if ct == nil {
		return
	}
	cp := ComputePhase{Start: start, Seconds: seconds, FirstServer: firstServer,
		ServerSeconds: append([]float64(nil), serverSeconds...)}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.computePhases = append(ct.computePhases, cp)
}

// ObserveKernelCache accumulates the join-kernel IndexCache totals of one
// compute phase.
func (ct *ClusterTrace) ObserveKernelCache(hits, misses int64) {
	if ct == nil {
		return
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	ct.kernelHits += hits
	ct.kernelMisses += misses
	ct.kernelSamples++
}

// Rounds returns a copy of the observed rounds.
func (ct *ClusterTrace) Rounds() []RoundObservation {
	if ct == nil {
		return nil
	}
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return append([]RoundObservation(nil), ct.rounds...)
}

// hashFloats folds a float64 slice into an FNV-64a digest (bit-exact, so
// structurally identical runs agree and any numeric drift shows).
func hashFloats(vals []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

func hashInts(vals []int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		_, _ = h.Write(b[:])
	}
	return h.Sum64()
}

// Structure renders the trace's deterministic skeleton: everything except
// wall-clock timings and wire counters. Two seeded runs of the same query
// must produce byte-identical Structure output.
func (t *Trace) Structure() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	clusters := append([]*ClusterTrace(nil), t.clusters...)
	instants := append([]Instant(nil), t.instants...)
	t.mu.Unlock()

	var b strings.Builder
	fmt.Fprintf(&b, "trace clusters=%d instants=%d\n", len(clusters), len(instants))
	for _, ct := range clusters {
		ct.mu.Lock()
		fmt.Fprintf(&b, "cluster %d p=%d bpv=%d rounds=%d compute_phases=%d\n",
			ct.id, ct.p, ct.bitsPerValue, len(ct.rounds), len(ct.computePhases))
		for i, ro := range ct.rounds {
			fmt.Fprintf(&b, "  round %d name=%q max_bits=%x total_bits=%x max_tuples=%d total_tuples=%d aborted=%v recv_bits_fnv=%016x recv_tuples_fnv=%016x\n",
				i, ro.Name, ro.MaxRecvBits, ro.TotalRecvBits, ro.MaxRecvTuples,
				ro.TotalRecvTuples, ro.Aborted, hashFloats(ro.RecvBits), hashInts(ro.RecvTuples))
		}
		if ct.kernelSamples > 0 {
			fmt.Fprintf(&b, "  kernel_cache hits=%d misses=%d samples=%d\n",
				ct.kernelHits, ct.kernelMisses, ct.kernelSamples)
		}
		ct.mu.Unlock()
	}
	for _, in := range instants {
		fmt.Fprintf(&b, "instant %q", in.Name)
		for _, kv := range in.Args {
			fmt.Fprintf(&b, " %s=%s", kv.Key, kv.Value)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// chromeEvent is one entry of the Chrome trace-event format's JSON array
// (ph "X" = complete span, "i" = instant).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds since trace epoch
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func (t *Trace) micros(at time.Time) float64 {
	return float64(at.Sub(t.start)) / float64(time.Microsecond)
}

// WriteChrome writes the trace in Chrome trace-event JSON ("JSON object
// format": a traceEvents array of complete/instant events). Load the
// output in chrome://tracing or https://ui.perfetto.dev. Events map as
// pid = cluster index, tid 0 = the cluster's phase track, tid s+1 =
// model server s.
func (t *Trace) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`)
		return err
	}
	t.mu.Lock()
	clusters := append([]*ClusterTrace(nil), t.clusters...)
	instants := append([]Instant(nil), t.instants...)
	wire := append([]WireObservation(nil), t.wire...)
	t.mu.Unlock()

	var evs []chromeEvent
	for _, ct := range clusters {
		ct.mu.Lock()
		for i, ro := range ct.rounds {
			evs = append(evs, chromeEvent{
				Name: fmt.Sprintf("round %d %s: compute", i, ro.Name),
				Cat:  "round", Ph: "X",
				Ts: t.micros(ro.ComputeStart), Dur: ro.ComputeSeconds * 1e6,
				Pid: ct.id, Tid: 0,
			})
			deliverArgs := map[string]any{
				"max_recv_bits":   ro.MaxRecvBits,
				"total_recv_bits": ro.TotalRecvBits,
				"max_recv_tuples": ro.MaxRecvTuples,
				"aborted":         ro.Aborted,
			}
			if ro.ChunkFlushes > 0 {
				deliverArgs["chunk_flushes"] = ro.ChunkFlushes
			}
			evs = append(evs, chromeEvent{
				Name: fmt.Sprintf("round %d %s: deliver", i, ro.Name),
				Cat:  "round", Ph: "X",
				Ts: t.micros(ro.DeliverStart), Dur: ro.DeliverSeconds * 1e6,
				Pid: ct.id, Tid: 0,
				Args: deliverArgs,
			})
			// One emit span per evaluated server, carrying what the server
			// received this round; a server another process evaluated gets
			// an instant at the delivery instead, carrying the same
			// accounting, so the per-server receive totals cover all p.
			last := ro.FirstServer + len(ro.ServerComputeSeconds)
			for s := range max(len(ro.RecvBits), last) {
				ev := chromeEvent{Name: "emit", Cat: "server", Pid: ct.id, Tid: s + 1}
				if s >= ro.FirstServer && s < last {
					ev.Ph, ev.Ts, ev.Dur = "X", t.micros(ro.ComputeStart), ro.ServerComputeSeconds[s-ro.FirstServer]*1e6
				} else {
					ev.Ph, ev.S, ev.Ts = "i", "t", t.micros(ro.DeliverStart)
				}
				if s < len(ro.RecvBits) {
					ev.Args = map[string]any{"recv_bits": ro.RecvBits[s], "recv_tuples": ro.RecvTuples[s]}
				}
				evs = append(evs, ev)
			}
			for d, secs := range ro.DestDeliverSeconds {
				if secs == 0 {
					continue // network delivery: local per-dest assembly not measured
				}
				evs = append(evs, chromeEvent{
					Name: "deliver", Cat: "server", Ph: "X",
					Ts: t.micros(ro.DeliverStart), Dur: secs * 1e6,
					Pid: ct.id, Tid: d + 1,
				})
			}
		}
		for _, cp := range ct.computePhases {
			evs = append(evs, chromeEvent{
				Name: "compute", Cat: "compute", Ph: "X",
				Ts: t.micros(cp.Start), Dur: cp.Seconds * 1e6,
				Pid: ct.id, Tid: 0,
			})
			for i, secs := range cp.ServerSeconds {
				evs = append(evs, chromeEvent{
					Name: "compute", Cat: "server", Ph: "X",
					Ts: t.micros(cp.Start), Dur: secs * 1e6,
					Pid: ct.id, Tid: cp.FirstServer + i + 1,
				})
			}
		}
		if ct.kernelSamples > 0 {
			evs = append(evs, chromeEvent{
				Name: "kernel-cache", Cat: "kernel", Ph: "i", S: "p",
				Ts:  0,
				Pid: ct.id, Tid: 0,
				Args: map[string]any{"hits": ct.kernelHits, "misses": ct.kernelMisses},
			})
		}
		ct.mu.Unlock()
	}
	for _, in := range instants {
		args := make(map[string]any, len(in.Args))
		for _, kv := range in.Args {
			args[kv.Key] = kv.Value
		}
		evs = append(evs, chromeEvent{
			Name: in.Name, Cat: "run", Ph: "i", S: "g",
			Ts:  float64(in.Offset) / float64(time.Microsecond),
			Pid: 0, Tid: 0, Args: args,
		})
	}
	for _, wo := range wire {
		evs = append(evs, chromeEvent{
			Name: "wire", Cat: "transport", Ph: "i", S: "g",
			Ts:  0,
			Pid: 0, Tid: 0,
			Args: map[string]any{
				"data_frames":          wo.DataFrames,
				"ctrl_frames":          wo.CtrlFrames,
				"wire_bytes":           wo.WireBytes,
				"payload_bytes":        wo.PayloadBytes,
				"billed_payload_bytes": wo.BilledPayloadBytes,
				"redials":              wo.Redials,
				"resends":              wo.Resends,
			},
		})
	}
	if evs == nil {
		evs = []chromeEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}
