package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

func get(t *testing.T, h *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := h.Client().Get(h.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestHandlerRoutes(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("probe_total").Add(5)
	tr := NewTrace()
	populate(tr)
	srv := httptest.NewServer(Handler(func() *Trace { return tr }, reg))
	defer srv.Close()

	if code, body := get(t, srv, "/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: code=%d body=%q", code, body)
	}
	if code, body := get(t, srv, "/metrics"); code != 200 || !strings.Contains(body, "probe_total 5") {
		t.Fatalf("metrics: code=%d body=%q", code, body)
	}
	code, body := get(t, srv, "/debug/trace")
	if code != 200 {
		t.Fatalf("trace: code=%d", code)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Fatalf("trace download not valid Chrome JSON: err=%v events=%d", err, len(doc.TraceEvents))
	}
	if code, body := get(t, srv, "/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("pprof cmdline: code=%d", code)
	}
	if code, _ := get(t, srv, "/no-such"); code != 404 {
		t.Fatalf("unknown path: code=%d, want 404", code)
	}
}

func TestHandlerNoTrace(t *testing.T) {
	srv := httptest.NewServer(Handler(nil))
	defer srv.Close()
	if code, _ := get(t, srv, "/debug/trace"); code != 404 {
		t.Fatalf("no-trace download: code=%d, want 404", code)
	}
	// Default registry serves without explicit regs.
	Default().Counter("obs_test_default_probe_total").Add(1)
	if code, body := get(t, srv, "/metrics"); code != 200 || !strings.Contains(body, "obs_test_default_probe_total") {
		t.Fatalf("default metrics: code=%d body=%q", code, body)
	}
}
