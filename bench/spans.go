package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// recorder keeps the traced run's spans in memory until the child exits.
// The harness opens a span around each call it makes into a layer; the
// program itself is not instrumented. A nil recorder records nothing, so
// an untraced run pays one nil check per call.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	next  int64
	spans []spanRef
}

// spanRef is an open or finished span. Spans of one unit of work share its
// run ID; track is the daemon client issuing them (0 for sequential work).
type spanRef struct {
	name       string
	id, parent int64
	run        int64
	track      int
	start, end time.Time
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// unit opens the root span of one unit of work.
func (r *recorder) unit(name string, run int64, track int) spanRef {
	return r.begin(spanRef{run: run, track: track}, name)
}

// begin opens a span under parent.
func (r *recorder) begin(parent spanRef, name string) spanRef {
	if r == nil {
		return spanRef{}
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return spanRef{name: name, id: id, parent: parent.id, run: parent.run, track: parent.track, start: time.Now()}
}

// end closes a span.
func (r *recorder) end(s spanRef) {
	if r == nil {
		return
	}
	s.end = time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// mark records a milestone reached inside parent as a span from parent's
// start to now.
func (r *recorder) mark(parent spanRef, name string) {
	if r == nil {
		return
	}
	s := r.begin(parent, name)
	s.start = parent.start
	r.end(s)
}

// chromeEvent is one trace-event JSON record (obs.ValidateChromeTrace's
// format: complete "X" events plus "M" metadata).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome renders the spans as Chrome trace-event JSON, loadable in
// Perfetto: one track per daemon client, microsecond wall-clock times
// since the child's start.
func (r *recorder) writeChrome(w io.Writer, process string) error {
	micros := func(t time.Time) float64 { return float64(t.Sub(r.t0).Nanoseconds()) / 1e3 }
	r.mu.Lock()
	defer r.mu.Unlock()
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}}}
	for _, s := range r.spans {
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Ts: micros(s.start), Dur: micros(s.end) - micros(s.start),
			Pid: 1, Tid: s.track,
			Args: map[string]any{"id": s.id, "parent": s.parent, "run": s.run},
		})
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
}
