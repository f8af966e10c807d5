package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/flashsim"
	"repro/internal/scenario"
)

// routes builds the daemon's versioned HTTP surface. Method-qualified
// patterns make the mux answer 405 (with Allow) for a known path hit
// with the wrong method.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /v1/scenarios", s.handleScenarios)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("POST /v1/runs", s.handleCreate)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/runs/{id}/events", s.handleInject)
	mux.HandleFunc("GET /v1/runs/{id}/report", s.handleReport)
	mux.HandleFunc("GET /v1/runs/{id}/stream", s.handleStream)
	return mux
}

// writeJSON writes v as a JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client gone; nothing to do
}

// writeError writes a JSON error body with the given status.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{Error: fmt.Sprintf(format, args...)})
}

// readBody reads a bounded request body; a too-large body maps to 413.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxRequestBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds %d bytes", s.cfg.MaxRequestBytes)
		} else {
			writeError(w, http.StatusBadRequest, "reading request body: %v", err)
		}
		return nil, false
	}
	return body, true
}

// lookup resolves the {id} path value, answering 404 when unknown.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*run, bool) {
	id := r.PathValue("id")
	run, ok := s.reg.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", id)
		return nil, false
	}
	return run, true
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Status string `json:"status"`
	}{Status: "ok"})
}

// scenarioInfo is one entry of the GET /v1/scenarios listing.
type scenarioInfo struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	var out []scenarioInfo
	for _, name := range flashsim.BuiltinScenarioNames() {
		sc, err := flashsim.BuiltinScenario(name)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "builtin %q: %v", name, err)
			return
		}
		out = append(out, scenarioInfo{Name: name, Description: sc.Description})
	}
	writeJSON(w, http.StatusOK, struct {
		Scenarios []scenarioInfo `json:"scenarios"`
	}{Scenarios: out})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	runs := s.reg.list()
	infos := make([]RunInfo, 0, len(runs))
	for _, run := range runs {
		infos = append(infos, run.Info())
	}
	writeJSON(w, http.StatusOK, struct {
		Runs []RunInfo `json:"runs"`
	}{Runs: infos})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	spec, err := parseRunRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	run, err := s.submit(spec)
	switch {
	case errors.Is(err, errRegistryFull):
		writeError(w, http.StatusTooManyRequests,
			"run table full (%d runs); delete finished runs first", s.cfg.MaxRuns)
		return
	case err != nil:
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/runs/"+run.ID())
	writeJSON(w, http.StatusCreated, run.Info())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, run.Info())
}

// handleDelete cancels a live run, or removes a finished one from the
// table (freeing its slot and forgetting its stream). A running
// steady-state run has no barrier to stop at, so it cannot be canceled.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if !run.State().terminal() {
		if run.cancel() == StateRunning && run.ctl == nil {
			writeError(w, http.StatusConflict,
				"run %s is a running steady-state run; it cannot be canceled and runs to completion", run.ID())
			return
		}
		writeJSON(w, http.StatusAccepted, run.Info())
		return
	}
	if err := s.reg.remove(run.ID()); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleInject(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	body, ok := s.readBody(w, r)
	if !ok {
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var ev scenario.Event
	if err := dec.Decode(&ev); err != nil {
		writeError(w, http.StatusBadRequest, "event: %v", err)
		return
	}
	if run.ctl == nil {
		writeError(w, http.StatusConflict,
			"run %s is a steady-state run; events can only be injected into scenario runs", run.ID())
		return
	}
	if st := run.State(); st.terminal() {
		writeError(w, http.StatusConflict, "run %s already %s", run.ID(), st)
		return
	}
	if err := run.ctl.Inject(ev); err != nil {
		if errors.Is(err, flashsim.ErrRunCanceled) {
			writeError(w, http.StatusConflict, "run %s canceled", run.ID())
		} else {
			writeError(w, http.StatusBadRequest, "event: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, struct {
		Status string `json:"status"`
		Kind   string `json:"kind"`
	}{Status: "accepted", Kind: string(ev.Kind)})
}

// handleReport serves the finished run's flashsim report. Until the run
// reaches done the endpoint answers 409, pointing clients at the stream.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	report, ok := run.Report()
	if !ok {
		info := run.Info()
		msg := fmt.Sprintf("run %s is %s; no report available", info.ID, info.State)
		if info.Error != "" {
			msg += ": " + info.Error
		}
		writeError(w, http.StatusConflict, "%s", msg)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(report) //nolint:errcheck // client gone; nothing to do
}

// handleStream streams the run's live envelopes: NDJSON by default, SSE
// framing when the client asks for text/event-stream (or ?sse=1). The
// full history replays from the start, so attaching after completion
// still yields every line.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	run, ok := s.lookup(w, r)
	if !ok {
		return
	}
	sse := r.URL.Query().Get("sse") == "1" ||
		strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	sig := run.hub.subscribe()
	defer run.hub.unsubscribe(sig)
	cursor := 0
	for {
		lines, done := run.hub.next(cursor)
		for _, ln := range lines {
			if err := writeLine(w, ln, sse); err != nil {
				return // client went away
			}
		}
		cursor += len(lines)
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		// Every publish after next leaves a wake-up on the signal, so
		// waiting here misses no line.
		select {
		case <-sig:
		case <-r.Context().Done():
			return
		}
	}
}

// writeLine writes one stored line: as is for NDJSON, or framed as the
// Server-Sent Event "event: <kind>\ndata: <line>\n\n" (the line carries
// its own '\n').
func writeLine(w io.Writer, ln streamLine, sse bool) error {
	if sse {
		if _, err := io.WriteString(w, "event: "); err != nil {
			return err
		}
		if _, err := io.WriteString(w, ln.kind); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\ndata: "); err != nil {
			return err
		}
	}
	if _, err := w.Write(ln.data); err != nil {
		return err
	}
	if sse {
		_, err := io.WriteString(w, "\n")
		return err
	}
	return nil
}
