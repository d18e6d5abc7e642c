package mpcquery

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestTracingPreservesFingerprint is the tentpole contract at the public
// API: for every strategy family, attaching a trace changes nothing the Report's Fingerprint covers — observability is
// purely observational. The scenario list is the same one the distributed
// runtime's equivalence test drives, so every built-in strategy family is
// covered.
func TestTracingPreservesFingerprint(t *testing.T) {
	for _, sc := range distScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			plain, err := sc.run()
			if err != nil {
				t.Fatal(err)
			}
			tr := NewTrace()
			traced, err := sc.run(WithTrace(tr))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := traced.Fingerprint(), plain.Fingerprint(); got != want {
				t.Errorf("fingerprint changed under tracing\n got %s\nwant %s", got, want)
			}
			// The trace must have actually observed the run: at least one
			// cluster with at least one round.
			if s := tr.Structure(); strings.HasPrefix(s, "trace clusters=0") {
				t.Errorf("trace observed no clusters:\n%s", s)
			}
		})
	}
}

// TestTraceStructureDeterministicAcrossRuns: two traced runs of the same
// seeded request produce structurally identical traces — same clusters,
// rounds, per-round bit and tuple accounting, kernel cache totals —
// differing only in timings, which Structure excludes.
func TestTraceStructureDeterministicAcrossRuns(t *testing.T) {
	for _, sc := range distScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			a, b := NewTrace(), NewTrace()
			if _, err := sc.run(WithTrace(a)); err != nil {
				t.Fatal(err)
			}
			if _, err := sc.run(WithTrace(b)); err != nil {
				t.Fatal(err)
			}
			if sa, sb := a.Structure(), b.Structure(); sa != sb {
				t.Errorf("trace structure diverged between identical runs\n--- run 1\n%s\n--- run 2\n%s", sa, sb)
			}
		})
	}
}

// TestTraceChromeExport: the Chrome trace-event export of a real run is
// valid JSON with the schema chrome://tracing and Perfetto load — a
// top-level traceEvents array whose entries carry the required phase and
// timestamp fields.
func TestTraceChromeExport(t *testing.T) {
	tr := NewTrace()
	sc := distScenarios()[0]
	if _, err := sc.run(WithTrace(tr)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("export is not valid JSON:\n%.400s", buf.String())
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("export has no trace events")
	}
	for i, ev := range doc.TraceEvents {
		if _, ok := ev["name"].(string); !ok {
			t.Fatalf("event %d has no name: %v", i, ev)
		}
		ph, ok := ev["ph"].(string)
		if !ok || (ph != "X" && ph != "i") {
			t.Fatalf("event %d has unexpected phase %q", i, ev["ph"])
		}
		if _, ok := ev["ts"].(float64); !ok {
			t.Fatalf("event %d has no timestamp: %v", i, ev)
		}
		if ph == "X" {
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("complete event %d has no duration: %v", i, ev)
			}
		}
	}
}

// TestServiceObservability exercises the service-level integration in one
// pass: a service with a debug listener serves queries, and the debug
// endpoint answers with Prometheus metrics, the stats JSON, and pprof.
func TestServiceObservability(t *testing.T) {
	svc := NewService(WithDebugListener("127.0.0.1:0"))
	defer svc.Close()
	addr := svc.DebugAddr()
	if addr == "" {
		t.Fatal("debug listener did not bind")
	}

	q := Triangle()
	db := MatchingDatabase(rand.New(rand.NewSource(104)), q, 120, 1<<12)
	for i := 0; i < 2; i++ {
		if _, err := svc.Run(context.Background(), q, db,
			WithStrategy(HyperCube()), WithServers(16), WithSeed(7)); err != nil {
			t.Fatal(err)
		}
	}

	st := svc.Stats()
	if st.Completed != 2 {
		t.Fatalf("Completed = %d, want 2", st.Completed)
	}

	get := func(path string) (int, string) {
		t.Helper()
		cl := &http.Client{Timeout: 5 * time.Second}
		resp, err := cl.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(b)
	}

	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "mpc_service_requests_completed_total 2") ||
		!strings.Contains(body, "mpc_service_latency_seconds_bucket") ||
		!strings.Contains(body, "mpc_engine_rounds_total") {
		t.Errorf("/metrics = %d:\n%.600s", code, body)
	}
	code, body := get("/debug/stats")
	if code != http.StatusOK {
		t.Fatalf("/debug/stats = %d", code)
	}
	var stats map[string]any
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("/debug/stats is not JSON: %v\n%.400s", err, body)
	}
	if got, ok := stats["Completed"].(float64); !ok || got != 2 {
		t.Errorf("/debug/stats Completed = %v, want 2", stats["Completed"])
	}
	if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline = %d", code)
	}

	svc.Close()
	if cl := (&http.Client{Timeout: time.Second}); true {
		if _, err := cl.Get("http://" + addr + "/metrics"); err == nil {
			t.Error("debug endpoint still serving after Close")
		}
	}
}
