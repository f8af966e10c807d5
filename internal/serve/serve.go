// Package serve implements flashsimd, the simulation-as-a-service
// daemon: submitted runs execute on a bounded worker pool, publish their
// telemetry and phase/event results live over streaming HTTP, accept
// fault injections into the running cluster between epochs, and finish
// with a versioned machine-readable report. See docs/SERVICE.md.
package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"strings"

	"repro/flashsim"
	"repro/internal/runner/pool"
	"repro/internal/stats"
)

// Config tunes a Server. Zero values select the defaults.
type Config struct {
	// MaxConcurrent bounds how many runs execute simultaneously; further
	// accepted runs queue as pending. Default: GOMAXPROCS.
	MaxConcurrent int
	// MaxRuns bounds the run table (pending + running + finished).
	// Submissions beyond it are rejected with 429 until runs are
	// deleted. Default: 64.
	MaxRuns int
	// MaxRequestBytes bounds request bodies. Default: 1 MiB.
	MaxRequestBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxRuns <= 0 {
		c.MaxRuns = 64
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 1 << 20
	}
	return c
}

// Server is the flashsimd daemon: a run registry, a worker queue that
// executes runs, and the HTTP API over both.
type Server struct {
	cfg   Config
	reg   *registry
	queue *pool.Queue
	mux   *http.ServeMux
}

// New builds a Server and its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		reg:   newRegistry(cfg.MaxRuns),
		queue: pool.NewQueue(cfg.MaxConcurrent),
	}
	s.mux = s.routes()
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close shuts the server down: every live run is canceled, then the
// worker queue drains. New submissions after Close are rejected.
func (s *Server) Close() {
	for _, r := range s.reg.list() {
		r.cancel()
	}
	s.queue.Close()
}

// submit registers a run and hands it to the worker queue.
func (s *Server) submit(spec *runSpec) (*run, error) {
	var ctl *flashsim.RunController
	if spec.Scenario != nil {
		ctl = flashsim.NewRunController(spec.Config)
	}
	r, err := s.reg.add(spec, ctl)
	if err != nil {
		return nil, err
	}
	if err := s.queue.Submit(func() { s.execute(r) }); err != nil {
		r.finish(StateCanceled, nil, "server shutting down")
		s.reg.remove(r.id)
		return nil, err
	}
	return r, nil
}

// execute runs one simulation to completion on a worker goroutine,
// publishing stream lines as it goes and recording the terminal state.
func (s *Server) execute(r *run) {
	if !r.start() {
		// Canceled while pending; cancel already published the end line.
		return
	}
	r.hub.publish("hello", helloLine(r))
	var (
		report *flashsim.Report
		err    error
	)
	if r.spec.Scenario != nil {
		cols := flashsim.TelemetryColumns()
		// The coordinator calls Sample from one goroutine, and publish
		// copies the line, so one encode buffer serves the whole run.
		var line []byte
		hooks := flashsim.ScenarioHooks{
			Sample: func(sec float64, row []float64) {
				line = appendSampleLine(line[:0], cols, sec, row)
				r.hub.publish("sample", line)
			},
			Phase: func(p flashsim.PhaseResult) {
				r.hub.publish("phase", dataLine("phase", p))
			},
			Event: func(e flashsim.EventResult) {
				r.hub.publish("event", dataLine("event", e))
			},
		}
		var res *flashsim.ScenarioResult
		res, err = flashsim.RunScenarioStream(r.spec.Config, r.spec.Scenario, hooks, r.ctl)
		if err == nil {
			report = flashsim.NewScenarioReport(r.spec.Config, res)
		}
	} else {
		var res *flashsim.Result
		res, err = flashsim.Run(r.spec.Config)
		if err == nil {
			report = flashsim.NewReport(r.spec.Config, res)
		}
	}
	switch {
	case errors.Is(err, flashsim.ErrRunCanceled):
		r.finish(StateCanceled, nil, "")
		r.hub.publish("end", endLine(StateCanceled, ""))
	case err != nil:
		r.finish(StateFailed, nil, err.Error())
		r.hub.publish("end", endLine(StateFailed, err.Error()))
	default:
		var sb strings.Builder
		if werr := report.WriteJSON(&sb); werr != nil {
			r.finish(StateFailed, nil, werr.Error())
			r.hub.publish("end", endLine(StateFailed, werr.Error()))
			break
		}
		r.finish(StateDone, []byte(sb.String()), "")
		r.hub.publish("end", endLine(StateDone, ""))
	}
	r.hub.close()
}

// appendSampleLine appends the stream envelope of one telemetry row to
// dst.
func appendSampleLine(dst []byte, cols []string, sec float64, row []float64) []byte {
	dst = append(dst, `{"type":"sample","data":`...)
	dst = stats.AppendRowNDJSON(dst, cols, sec, row)
	return append(dst, '}')
}

// helloLine builds the stream's opening envelope: the run identity and
// the telemetry column order that all sample lines follow.
func helloLine(r *run) []byte {
	b, err := json.Marshal(struct {
		Type     string   `json:"type"`
		ID       string   `json:"id"`
		Scenario string   `json:"scenario,omitempty"`
		Columns  []string `json:"columns,omitempty"`
	}{Type: "hello", ID: r.id, Scenario: r.spec.scenarioName(), Columns: flashsim.TelemetryColumns()})
	if err != nil {
		panic(err) // static struct of plain strings; cannot fail
	}
	return b
}

// endLine builds the stream's closing envelope.
func endLine(state RunState, errMsg string) []byte {
	b, err := json.Marshal(struct {
		Type  string `json:"type"`
		State string `json:"state"`
		Error string `json:"error,omitempty"`
	}{Type: "end", State: string(state), Error: errMsg})
	if err != nil {
		panic(err)
	}
	return b
}

// dataLine wraps a marshaled payload in a typed stream envelope.
func dataLine(kind string, payload any) []byte {
	b, err := json.Marshal(struct {
		Type string `json:"type"`
		Data any    `json:"data"`
	}{Type: kind, Data: payload})
	if err != nil {
		panic(err) // report structs marshal by construction
	}
	return b
}
