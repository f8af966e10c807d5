package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/flashsim"
	"repro/internal/scenario/scenariotest"
)

// tinyScenarioBody is a complete POST /v1/runs body for a fast two-host
// scenario run: two short phases with one scripted flush.
const tinyScenarioBody = `{
	"config": {"hosts": 2, "persistent": true, "shards": 1},
	"scenario": {
		"name": "tiny",
		"phases": [
			{"name": "warm", "blocks": 2000},
			{"name": "steady", "blocks": 2000,
			 "events": [{"kind": "flush", "host": 1, "fraction": 0.5}]}
		]
	}
}`

// tinySteadyBody is a fast steady-state (non-scenario) run request.
const tinySteadyBody = `{"config": {"hosts": 1, "shards": 0, "wss_gb": 2}}`

// newTestServer starts a daemon on an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// do issues one request and returns the status and body.
func do(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// createRun POSTs a run request and returns its ID.
func createRun(t *testing.T, ts *httptest.Server, body string) string {
	t.Helper()
	status, b := do(t, http.MethodPost, ts.URL+"/v1/runs", body)
	if status != http.StatusCreated {
		t.Fatalf("POST /v1/runs = %d: %s", status, b)
	}
	var info RunInfo
	if err := json.Unmarshal(b, &info); err != nil {
		t.Fatal(err)
	}
	// A free worker may start the run before the response is written, so
	// a fresh run reports pending or already running.
	if info.ID == "" || (info.State != string(StatePending) && info.State != string(StateRunning)) {
		t.Fatalf("created run info %+v", info)
	}
	return info.ID
}

// streamLines streams a run to completion and returns the decoded NDJSON
// envelopes.
func streamLines(t *testing.T, ts *httptest.Server, id string) []map[string]json.RawMessage {
	t.Helper()
	status, b := do(t, http.MethodGet, ts.URL+"/v1/runs/"+id+"/stream", "")
	if status != http.StatusOK {
		t.Fatalf("stream = %d: %s", status, b)
	}
	var out []map[string]json.RawMessage
	for _, line := range bytes.Split(bytes.TrimSpace(b), []byte("\n")) {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("stream line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// lineType decodes an envelope's "type" field.
func lineType(t *testing.T, m map[string]json.RawMessage) string {
	t.Helper()
	var typ string
	if err := json.Unmarshal(m["type"], &typ); err != nil {
		t.Fatalf("envelope %v: %v", m, err)
	}
	return typ
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, b := do(t, http.MethodGet, ts.URL+"/healthz", "")
	if status != http.StatusOK || !bytes.Contains(b, []byte(`"ok"`)) {
		t.Fatalf("healthz = %d: %s", status, b)
	}
}

func TestScenariosEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, b := do(t, http.MethodGet, ts.URL+"/v1/scenarios", "")
	if status != http.StatusOK {
		t.Fatalf("scenarios = %d: %s", status, b)
	}
	var got struct {
		Scenarios []scenarioInfo `json:"scenarios"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, sc := range got.Scenarios {
		names[sc.Name] = true
		if sc.Description == "" {
			t.Errorf("builtin %q has no description", sc.Name)
		}
	}
	for _, want := range []string{"warmup", "burst", "ws-shift", "crash-recovery", "churn", "filer-crash"} {
		if !names[want] {
			t.Errorf("builtin %q missing from listing %v", want, names)
		}
	}
}

// TestCreateRejectsBadRequests covers the 400 surface of POST /v1/runs:
// malformed documents, invalid configurations, and — via the shared
// scenariotest corpus — every scenario parse error, each of which must
// surface its parser message through the API.
func TestCreateRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want string
	}{
		{"syntax error", `{`, "unexpected EOF"},
		{"unknown top-level field", `{"cfg": {}}`, `unknown field "cfg"`},
		{"unknown config field", `{"config": {"ram": 8}}`, `unknown field "ram"`},
		{"trailing data", `{} {}`, "trailing data"},
		{"builtin and scenario", `{"builtin": "warmup", "scenario": {"name": "x", "phases": [{"name": "p", "blocks": 1}]}}`, "mutually exclusive"},
		{"unknown builtin", `{"builtin": "nope"}`, `unknown built-in "nope"`},
		{"bad arch", `{"config": {"arch": "quantum"}}`, "quantum"},
		{"empty arch", `{"config": {"arch": ""}}`, "unknown architecture"},
		{"bad policy", `{"config": {"ram_policy": "zz"}}`, "zz"},
		{"bad replacement", `{"config": {"replacement": "mru"}}`, "mru"},
		{"negative scale", `{"config": {"scale": -4}}`, "scale -4 out of range"},
		{"zero scale", `{"config": {"scale": 0}}`, "scale 0 out of range"},
		{"zero hosts", `{"config": {"hosts": 0}}`, "at least one host"},
		{"object tier settings without tier", `{"config": {"filer": {"object_read_us": 5}}}`, "object-tier settings without object_tier"},
		{"negative ram", `{"config": {"ram_gb": -1}}`, "non-negative"},
		{"write_pct over 100", `{"config": {"write_pct": 150}}`, "out of range"},
		{"bad filer quorum", `{"config": {"filer": {"replicas": 2, "write_quorum": 3}}}`, "quorum"},
		{"scenario host out of config range", `{"config": {"hosts": 2}, "scenario": {"name": "x", "phases": [{"name": "p", "blocks": 100, "events": [{"kind": "crash", "host": 5}]}]}}`, "host 5"},
	}
	for _, pc := range scenariotest.ParseErrorCases {
		want := pc.Want
		if !json.Valid([]byte(pc.JSON)) {
			// A non-well-formed document is rejected by the outer
			// request decoder before the scenario parser sees it.
			want = "invalid character"
		}
		cases = append(cases, struct{ name, body, want string }{
			name: "scenario/" + pc.Name,
			body: fmt.Sprintf(`{"scenario": %s}`, pc.JSON),
			want: want,
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, b := do(t, http.MethodPost, ts.URL+"/v1/runs", tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400: %s", status, b)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(b, &e); err != nil {
				t.Fatalf("error body %q: %v", b, err)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Fatalf("error %q does not contain %q", e.Error, tc.want)
			}
		})
	}
}

// TestRunLifecycle walks the happy path end to end: create, observe the
// stream (hello, samples, phases, the scripted event, end), fetch the
// report, list, delete.
func TestRunLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createRun(t, ts, tinyScenarioBody)

	lines := streamLines(t, ts, id)
	if len(lines) < 4 {
		t.Fatalf("stream too short: %d lines", len(lines))
	}
	counts := make(map[string]int)
	for _, m := range lines {
		counts[lineType(t, m)]++
	}
	if lineType(t, lines[0]) != "hello" {
		t.Errorf("first line %v, want hello", lines[0])
	}
	if lineType(t, lines[len(lines)-1]) != "end" {
		t.Errorf("last line %v, want end", lines[len(lines)-1])
	}
	if counts["sample"] == 0 || counts["phase"] != 2 || counts["event"] != 1 {
		t.Errorf("stream counts %v, want samples > 0, 2 phases, 1 event", counts)
	}
	var end struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal([]byte(lastRaw(t, lines)), &end); err != nil || end.State != string(StateDone) {
		t.Errorf("end line state %q (err %v), want done", end.State, err)
	}

	status, b := do(t, http.MethodGet, ts.URL+"/v1/runs/"+id+"/report", "")
	if status != http.StatusOK {
		t.Fatalf("report = %d: %s", status, b)
	}
	rep, err := flashsim.ReadReport(b)
	if err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Schema != flashsim.ReportSchema {
		t.Errorf("report schema %q, want %q", rep.Schema, flashsim.ReportSchema)
	}
	if rep.Scenario == nil || rep.Scenario.Name != "tiny" || len(rep.Scenario.Phases) != 2 {
		t.Errorf("report scenario section %+v", rep.Scenario)
	}

	status, b = do(t, http.MethodGet, ts.URL+"/v1/runs", "")
	if status != http.StatusOK || !bytes.Contains(b, []byte(`"`+id+`"`)) {
		t.Fatalf("list = %d: %s", status, b)
	}

	if status, b = do(t, http.MethodDelete, ts.URL+"/v1/runs/"+id, ""); status != http.StatusNoContent {
		t.Fatalf("delete = %d: %s", status, b)
	}
	if status, _ = do(t, http.MethodGet, ts.URL+"/v1/runs/"+id, ""); status != http.StatusNotFound {
		t.Fatalf("get after delete = %d, want 404", status)
	}
}

// lastRaw returns the final stream line re-marshaled for decoding.
func lastRaw(t *testing.T, lines []map[string]json.RawMessage) string {
	t.Helper()
	b, err := json.Marshal(lines[len(lines)-1])
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSteadyStateRun covers the no-scenario path: stream is hello+end
// only, the report is a plain flashsim-report/2 without a scenario
// section, and event injection is refused.
func TestSteadyStateRun(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createRun(t, ts, tinySteadyBody)
	lines := streamLines(t, ts, id)
	if len(lines) != 2 || lineType(t, lines[0]) != "hello" || lineType(t, lines[1]) != "end" {
		t.Fatalf("steady stream %v, want hello+end", lines)
	}
	status, b := do(t, http.MethodGet, ts.URL+"/v1/runs/"+id+"/report", "")
	if status != http.StatusOK {
		t.Fatalf("report = %d: %s", status, b)
	}
	rep, err := flashsim.ReadReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenario != nil {
		t.Errorf("steady-state report has scenario section %+v", rep.Scenario)
	}
	status, b = do(t, http.MethodPost, ts.URL+"/v1/runs/"+id+"/events", `{"kind": "crash", "host": 0}`)
	if status != http.StatusConflict || !bytes.Contains(b, []byte("steady-state")) {
		t.Fatalf("inject into steady run = %d: %s", status, b)
	}
}

// TestRunViewsResolved: the run view and the report show the
// configuration the run executed — the shard count clamped to the hosts
// and the filer layout of the scenario's filer block — not the request.
func TestRunViewsResolved(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createRun(t, ts, `{"config": {"hosts": 2, "shards": 8}, "builtin": "filer-crash"}`)
	status, b := do(t, http.MethodGet, ts.URL+"/v1/runs/"+id, "")
	if status != http.StatusOK {
		t.Fatalf("get = %d: %s", status, b)
	}
	var info RunInfo
	if err := json.Unmarshal(b, &info); err != nil {
		t.Fatal(err)
	}
	if info.Shards != 2 {
		t.Errorf("run view shards %d, want 2", info.Shards)
	}
	streamLines(t, ts, id)
	status, b = do(t, http.MethodGet, ts.URL+"/v1/runs/"+id+"/report", "")
	if status != http.StatusOK {
		t.Fatalf("report = %d: %s", status, b)
	}
	rep, err := flashsim.ReadReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if c := rep.Config; c.Shards != 2 || c.FilerPartitions != 2 || c.FilerReplicas != 2 || !c.ObjectTier ||
		len(rep.FilerPartitions) != 2 {
		t.Errorf("report config %+v with %d partition rows, want 2 shards, 2 partitions x 2 replicas, object tier",
			c, len(rep.FilerPartitions))
	}
}

// TestPendingRun drives the pending state deterministically by occupying
// the single worker: report answers 409, valid injections queue, invalid
// ones fail at the API edge, and DELETE cancels without execution.
func TestPendingRun(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	block := make(chan struct{})
	release := make(chan struct{})
	if err := s.queue.Submit(func() { close(block); <-release }); err != nil {
		t.Fatal(err)
	}
	<-block
	defer close(release)

	id := createRun(t, ts, tinyScenarioBody)
	status, b := do(t, http.MethodGet, ts.URL+"/v1/runs/"+id+"/report", "")
	if status != http.StatusConflict || !bytes.Contains(b, []byte("pending")) {
		t.Fatalf("report while pending = %d: %s", status, b)
	}
	status, b = do(t, http.MethodPost, ts.URL+"/v1/runs/"+id+"/events", `{"kind": "flush", "host": 0}`)
	if status != http.StatusAccepted {
		t.Fatalf("inject while pending = %d: %s", status, b)
	}
	status, b = do(t, http.MethodPost, ts.URL+"/v1/runs/"+id+"/events", `{"kind": "crash", "host": 9}`)
	if status != http.StatusBadRequest || !bytes.Contains(b, []byte("out of range")) {
		t.Fatalf("bad inject = %d: %s", status, b)
	}
	status, b = do(t, http.MethodPost, ts.URL+"/v1/runs/"+id+"/events", `{"kind": "crash", "target": 1}`)
	if status != http.StatusBadRequest || !bytes.Contains(b, []byte("unknown field")) {
		t.Fatalf("unknown event field = %d: %s", status, b)
	}

	status, b = do(t, http.MethodDelete, ts.URL+"/v1/runs/"+id, "")
	if status != http.StatusAccepted {
		t.Fatalf("cancel pending = %d: %s", status, b)
	}
	lines := streamLines(t, ts, id)
	last := lines[len(lines)-1]
	if lineType(t, last) != "end" || !strings.Contains(lastRaw(t, lines), string(StateCanceled)) {
		t.Fatalf("canceled pending stream %v", lines)
	}
	status, b = do(t, http.MethodPost, ts.URL+"/v1/runs/"+id+"/events", `{"kind": "crash", "host": 0}`)
	if status != http.StatusConflict {
		t.Fatalf("inject after cancel = %d: %s", status, b)
	}
}

func TestUnknownRunIs404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ method, path, body string }{
		{http.MethodGet, "/v1/runs/zzz", ""},
		{http.MethodDelete, "/v1/runs/zzz", ""},
		{http.MethodGet, "/v1/runs/zzz/report", ""},
		{http.MethodGet, "/v1/runs/zzz/stream", ""},
		{http.MethodPost, "/v1/runs/zzz/events", `{"kind": "crash", "host": 0}`},
	} {
		if status, b := do(t, tc.method, ts.URL+tc.path, tc.body); status != http.StatusNotFound {
			t.Errorf("%s %s = %d, want 404: %s", tc.method, tc.path, status, b)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ method, path string }{
		{http.MethodPut, "/v1/runs"},
		{http.MethodPost, "/healthz"},
		{http.MethodDelete, "/v1/scenarios"},
	} {
		if status, _ := do(t, tc.method, ts.URL+tc.path, ""); status != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, status)
		}
	}
}

func TestRequestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRequestBytes: 64})
	body := `{"config": {"hosts": 1}, "scenario": ` + strings.Repeat(" ", 100) + `{}}`
	status, b := do(t, http.MethodPost, ts.URL+"/v1/runs", body)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d: %s", status, b)
	}
}

// TestRunTableFull covers the 429 capacity gate and slot reuse after
// deletion.
func TestRunTableFull(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRuns: 1})
	id := createRun(t, ts, tinySteadyBody)
	status, b := do(t, http.MethodPost, ts.URL+"/v1/runs", tinySteadyBody)
	if status != http.StatusTooManyRequests {
		t.Fatalf("over-capacity POST = %d: %s", status, b)
	}
	streamLines(t, ts, id) // wait for completion
	if status, b = do(t, http.MethodDelete, ts.URL+"/v1/runs/"+id, ""); status != http.StatusNoContent {
		t.Fatalf("delete = %d: %s", status, b)
	}
	id2 := createRun(t, ts, tinySteadyBody)
	if id2 == id {
		t.Fatalf("run ID %q reused after delete", id2)
	}
}

// TestStreamSSE checks the alternate Server-Sent Events framing: for a
// scenario run, the SSE body is exactly "event: <type>\ndata: <line>\n\n"
// over every line of the NDJSON body, byte for byte.
func TestStreamSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := createRun(t, ts, tinyScenarioBody)
	status, ndjson := do(t, http.MethodGet, ts.URL+"/v1/runs/"+id+"/stream", "")
	if status != http.StatusOK {
		t.Fatalf("stream = %d: %s", status, ndjson)
	}
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/runs/"+id+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	var want bytes.Buffer
	kinds := make(map[string]bool)
	for _, line := range bytes.SplitAfter(ndjson, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var env struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &env); err != nil {
			t.Fatalf("stream line %q: %v", line, err)
		}
		kinds[env.Type] = true
		fmt.Fprintf(&want, "event: %s\ndata: %s\n", env.Type, line)
	}
	for _, k := range []string{"hello", "sample", "event", "phase", "end"} {
		if !kinds[k] {
			t.Errorf("NDJSON stream has no %q line", k)
		}
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("SSE body (%d B) != NDJSON body framed as SSE (%d B):\ngot:  %.300s\nwant: %.300s",
			len(got), want.Len(), got, want.Bytes())
	}
}

// TestParseRunRequestMapping locks the wire-to-Config conversions against
// the CLI's semantics.
func TestParseRunRequestMapping(t *testing.T) {
	spec, err := parseRunRequest([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	// A run spec holds the resolved configuration.
	def, err := flashsim.Resolve(flashsim.ScaledConfig(defaultScale), nil)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Config.RAMBlocks != def.RAMBlocks || spec.Config.Hosts != def.Hosts {
		t.Errorf("empty request config %+v != ScaledConfig(%d)", spec.Config, defaultScale)
	}
	if spec.Scenario != nil {
		t.Error("empty request produced a scenario")
	}

	spec, err = parseRunRequest([]byte(`{"config": {
		"scale": 1024, "arch": "unified", "ram_gb": 4, "write_pct": 25,
		"hosts": 4, "shared_wss": true, "seed": 7,
		"filer": {"partitions": 2, "replicas": 3}
	}, "builtin": "crash-recovery"}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config
	if want := int(4 * float64(flashsim.BlocksPerGB) / 1024); cfg.RAMBlocks != want {
		t.Errorf("RAMBlocks = %d, want %d", cfg.RAMBlocks, want)
	}
	if cfg.Workload.WriteFraction != 0.25 || cfg.Workload.Seed != 7 || !cfg.Workload.SharedWorkingSet {
		t.Errorf("workload %+v", cfg.Workload)
	}
	if cfg.Hosts != 4 || cfg.Shards < 2 {
		t.Errorf("hosts %d shards %d, want 4 hosts and auto cluster shards", cfg.Hosts, cfg.Shards)
	}
	if cfg.FilerPartitions != 2 || cfg.FilerReplicas != 3 || cfg.FilerWriteQuorum != 2 {
		t.Errorf("filer layout (%d, %d, quorum %d), want (2, 3, quorum 2)",
			cfg.FilerPartitions, cfg.FilerReplicas, cfg.FilerWriteQuorum)
	}
	if spec.Scenario == nil || spec.Scenario.Name != "crash-recovery" {
		t.Errorf("builtin scenario %+v", spec.Scenario)
	}
	if spec.scenarioName() != "crash-recovery" {
		t.Errorf("ScenarioName() = %q", spec.scenarioName())
	}

	// An explicit zero is zero, not the default; a null config is the
	// defaults; wall_profile reaches the config.
	spec, err = parseRunRequest([]byte(`{"config": {"write_pct": 0, "prefetch": 0, "wall_profile": true}}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg := spec.Config; cfg.Workload.WriteFraction != 0 || cfg.Timing.FilerFastReadRate != 0 || !cfg.WallProfile {
		t.Errorf("write fraction %v, fast-read rate %v, wall profile %v; want 0, 0, true",
			cfg.Workload.WriteFraction, cfg.Timing.FilerFastReadRate, cfg.WallProfile)
	}
	spec, err = parseRunRequest([]byte(`{"config": null}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Config, def) {
		t.Errorf("null config = %+v, want ScaledConfig(%d) resolved", spec.Config, defaultScale)
	}
}
