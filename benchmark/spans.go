package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call at a layer boundary, recorded by the benchmark from
// outside the program. Spans of one Run share a run id; a micro-timing
// outside any Run has run id -1.
type span struct {
	name   string
	layer  string
	start  time.Time
	end    time.Time
	parent int // index of the span that caused this one, -1 for none
	runID  int
}

// recorder keeps the traced phase's spans in memory until the phase ends.
type recorder struct {
	spans []span
}

func (r *recorder) add(name, layer string, start, end time.Time, parent, runID int) int {
	r.spans = append(r.spans, span{name, layer, start, end, parent, runID})
	return len(r.spans) - 1
}

// once runs f with a span around it and returns its duration in milliseconds.
func (r *recorder) once(name, layer string, f func()) float64 {
	t0 := time.Now()
	f()
	t1 := time.Now()
	r.add(name, layer, t0, t1, -1, -1)
	return ms(t1.Sub(t0))
}

// timed runs f reps times, a span around each call, and returns the median
// duration in milliseconds.
func (r *recorder) timed(name, layer string, reps int, f func()) float64 {
	return repeat(reps, func() float64 { return r.once(name, layer, f) })
}

// repeat returns the median of reps calls of f.
func repeat(reps int, f func() float64) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

// selfTime is the span's duration minus the part of it its children cover.
func (r *recorder) selfTime(i int) time.Duration {
	p := r.spans[i]
	var kids []span
	for _, s := range r.spans[i+1:] {
		if s.parent == i {
			kids = append(kids, s)
		}
	}
	sort.Slice(kids, func(a, b int) bool { return kids[a].start.Before(kids[b].start) })
	self := p.end.Sub(p.start)
	covered := p.start
	for _, k := range kids {
		from, to := k.start, k.end
		if from.Before(covered) {
			from = covered
		}
		if to.After(p.end) {
			to = p.end
		}
		if to.After(from) {
			self -= to.Sub(from)
			covered = to
		}
	}
	return self
}

// writeChrome writes the spans as Chrome trace-event JSON (chrome://tracing,
// ui.perfetto.dev): track 0 holds the benchmark's own spans, track 1 the
// program's round and compute phases attached below each Run.
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(r.spans))
	if len(r.spans) > 0 {
		epoch := r.spans[0].start
		micros := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
		for _, s := range r.spans {
			tid := 0
			if s.parent >= 0 {
				tid = 1
			}
			events = append(events, event{Name: s.name, Cat: s.layer, Ph: "X",
				Ts: micros(s.start.Sub(epoch)), Dur: micros(s.end.Sub(s.start)), Tid: tid,
				Args: map[string]any{"run_id": s.runID, "parent": s.parent}})
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
