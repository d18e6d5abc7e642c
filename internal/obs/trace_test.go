package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func populate(t *Trace) {
	ct := t.NewCluster(4, 32)
	now := time.Now()
	ct.ObserveRound(RoundObservation{
		Name:         "shuffle",
		ComputeStart: now, ComputeSeconds: 0.010,
		DeliverStart: now.Add(10 * time.Millisecond), DeliverSeconds: 0.005,
		ServerComputeSeconds: []float64{0.001, 0.002, 0.003, 0.004},
		DestDeliverSeconds:   []float64{0.001, 0, 0.001, 0},
		RecvBits:             []float64{100, 200, 300, 400},
		RecvTuples:           []int{1, 2, 3, 4},
		MaxRecvBits:          400, TotalRecvBits: 1000,
		MaxRecvTuples: 4, TotalRecvTuples: 10,
	})
	ct.ObserveCompute(now.Add(20*time.Millisecond), 0.002, 0, nil)
	ct.ObserveKernelCache(5, 3)
	t.Instant("drift", KV{"strategy", "hypercube"}, KV{"round", "1"})
	t.ObserveWire(WireObservation{DataFrames: 7, WireBytes: 512})
}

func TestTraceStructureDeterministicModuloTiming(t *testing.T) {
	a, b := NewTrace(), NewTrace()
	populate(a)
	time.Sleep(2 * time.Millisecond) // different wall-clock offsets on purpose
	populate(b)
	if a.Structure() != b.Structure() {
		t.Fatalf("structures differ:\n--- a ---\n%s--- b ---\n%s", a.Structure(), b.Structure())
	}
	if !strings.Contains(a.Structure(), `name="shuffle"`) ||
		!strings.Contains(a.Structure(), "kernel_cache hits=5 misses=3") ||
		!strings.Contains(a.Structure(), `instant "drift" strategy=hypercube round=1`) {
		t.Fatalf("structure missing expected lines:\n%s", a.Structure())
	}
	// Wire counters are timing-dependent and must stay out of Structure.
	c := NewTrace()
	populate(c)
	c.ObserveWire(WireObservation{DataFrames: 9999})
	if c.Structure() != a.Structure() {
		t.Fatal("wire observations leaked into Structure")
	}
}

func TestTraceStructureSensitiveToBits(t *testing.T) {
	a, b := NewTrace(), NewTrace()
	populate(a)
	populate(b)
	b.clusters[0].rounds[0].RecvBits[2] = 301 // structural change must show
	if a.Structure() == b.Structure() {
		t.Fatal("structure insensitive to per-server bits")
	}
}

func TestWriteChromeValidSchema(t *testing.T) {
	tr := NewTrace()
	populate(tr)
	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events")
	}
	var spans, instants int
	for _, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ts == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("event missing required field: %+v", ev)
		}
		switch ev.Ph {
		case "X":
			spans++
			if ev.Dur < 0 {
				t.Fatalf("negative duration: %+v", ev)
			}
		case "i":
			instants++
			if ev.S == "" {
				t.Fatalf("instant without scope: %+v", ev)
			}
		default:
			t.Fatalf("unexpected phase %q", ev.Ph)
		}
	}
	// populate() records: compute span + deliver span + 4 server emits +
	// 2 nonzero dest delivers + 1 compute phase = 9 spans; kernel-cache +
	// drift + wire = 3 instants.
	if spans != 9 || instants != 3 {
		t.Fatalf("spans=%d instants=%d, want 9 and 3", spans, instants)
	}
}

func TestWriteChromeNilAndEmpty(t *testing.T) {
	var nilTrace *Trace
	var b strings.Builder
	if err := nilTrace.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("nil trace export invalid: %v", err)
	}
	b.Reset()
	if err := NewTrace().WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("empty trace export invalid: %v", err)
	}
	if _, ok := doc["traceEvents"].([]any); !ok {
		t.Fatal("traceEvents must be an array even when empty")
	}
}

func TestNilTraceObservationsNoOp(t *testing.T) {
	var tr *Trace
	ct := tr.NewCluster(4, 32)
	if ct != nil {
		t.Fatal("nil trace must hand out nil cluster sinks")
	}
	ct.ObserveRound(RoundObservation{Name: "x"})
	ct.ObserveCompute(time.Time{}, 1, 0, nil)
	ct.ObserveKernelCache(1, 1)
	tr.Instant("x")
	tr.ObserveWire(WireObservation{})
	if tr.Structure() != "" || len(tr.Instants()) != 0 || len(ct.Rounds()) != 0 {
		t.Fatal("nil trace must observe nothing")
	}
}

func TestTraceObserveRoundCopiesBuffers(t *testing.T) {
	tr := NewTrace()
	ct := tr.NewCluster(2, 8)
	bits := []float64{1, 2}
	tuples := []int{1, 2}
	ct.ObserveRound(RoundObservation{Name: "r", RecvBits: bits, RecvTuples: tuples})
	bits[0], tuples[1] = 99, 99 // engine reuses its buffers between rounds
	got := ct.Rounds()[0]
	if got.RecvBits[0] != 1 || got.RecvTuples[1] != 2 {
		t.Fatal("ObserveRound must copy caller buffers")
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ct := tr.NewCluster(2, 8)
			for i := 0; i < 50; i++ {
				ct.ObserveRound(RoundObservation{Name: "r", RecvBits: []float64{1}, RecvTuples: []int{1}})
				ct.ObserveKernelCache(1, 0)
				tr.Instant("tick")
			}
		}()
	}
	wg.Wait()
	var b strings.Builder
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if tr.Structure() == "" {
		t.Fatal("empty structure after concurrent writes")
	}
}
