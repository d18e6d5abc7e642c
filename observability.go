package mpcquery

import (
	"net/http"

	"mpcquery/internal/obs"
)

// Trace captures one run's execution timeline: a span per communication
// round (compute/emit phase and delivery phase, with per-server timings
// and the per-destination bit accounting the load L is defined over),
// local computation phases, join-kernel index-cache totals, transport
// wire deltas, and instants for recovery replays and injected faults.
//
// Attach a trace with WithTrace; after the run, export it with
// WriteChrome (Chrome trace-event JSON, loadable in chrome://tracing or
// ui.perfetto.dev) or assert on Structure(), its deterministic skeleton.
// Tracing is purely observational: a Report's Fingerprint() is
// byte-identical with tracing on or off.
type Trace = obs.Trace

// NewTrace returns an empty trace whose clock starts now.
func NewTrace() *Trace { return obs.NewTrace() }

// WithTrace attaches a trace to the run. A nil trace disables tracing
// (the default). The same Trace may observe several runs in sequence;
// cluster indices keep growing across them.
func WithTrace(t *Trace) RunOption { return func(c *runConfig) { c.trace = t } }

// DebugHandler returns the process-wide debug endpoint: /metrics serves
// the global registry (engine, kernel, transport and run totals) in
// Prometheus text format, and /debug/pprof/ the standard profilers. Mount
// it on any listener; cmd/mpcload's worker mode (-debugaddr) and
// Service's WithDebugListener use the same handler with their own
// registries and traces added.
func DebugHandler() http.Handler { return obs.Handler(nil) }
