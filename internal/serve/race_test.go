package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
)

// TestConcurrentSubmissions hammers the capacity-limited registry from
// parallel clients: every POST gets exactly 201 or 429, accepted runs
// all finish, and the run table never exceeds its bound.
func TestConcurrentSubmissions(t *testing.T) {
	const clients, maxRuns = 8, 4
	s, ts := newTestServer(t, Config{MaxRuns: maxRuns, MaxConcurrent: 2})
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ids []string
	)
	rejected := 0
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, b := do(t, http.MethodPost, ts.URL+"/v1/runs", tinySteadyBody)
			mu.Lock()
			defer mu.Unlock()
			switch status {
			case http.StatusCreated:
				var info RunInfo
				if err := unmarshal(b, &info); err != nil {
					t.Errorf("created body %q: %v", b, err)
					return
				}
				ids = append(ids, info.ID)
			case http.StatusTooManyRequests:
				rejected++
			default:
				t.Errorf("POST = %d: %s", status, b)
			}
		}()
	}
	wg.Wait()
	if len(ids)+rejected != clients || len(ids) > maxRuns {
		t.Fatalf("accepted %d rejected %d of %d clients (cap %d)", len(ids), rejected, clients, maxRuns)
	}
	if got := len(s.reg.list()); got != len(ids) {
		t.Fatalf("registry holds %d runs, accepted %d", got, len(ids))
	}
	for _, id := range ids {
		lines := streamLines(t, ts, id)
		if typ := lineType(t, lines[len(lines)-1]); typ != "end" {
			t.Errorf("run %s stream ends with %q", id, typ)
		}
	}
}

// unmarshal is a tiny indirection so goroutines can decode without
// touching testing.T helpers concurrently.
func unmarshal(b []byte, v any) error { return json.Unmarshal(b, v) }

// TestConcurrentStreamReaders attaches several readers to one run — some
// from the start, some after completion — and requires every one of them
// to observe the identical byte sequence (the hub replays history).
func TestConcurrentStreamReaders(t *testing.T) {
	const readers = 4
	_, ts := newTestServer(t, Config{})
	id := createRun(t, ts, tinyScenarioBody)
	bodies := make([][]byte, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, b := do(t, http.MethodGet, ts.URL+"/v1/runs/"+id+"/stream", "")
			if status != http.StatusOK {
				t.Errorf("reader %d: status %d", i, status)
				return
			}
			bodies[i] = b
		}(i)
	}
	wg.Wait()
	late, lateBody := do(t, http.MethodGet, ts.URL+"/v1/runs/"+id+"/stream", "")
	if late != http.StatusOK {
		t.Fatalf("late reader: status %d", late)
	}
	for i := 1; i < readers; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("reader %d saw different bytes than reader 0", i)
		}
	}
	if !bytes.Equal(bodies[0], lateBody) {
		t.Fatal("late reader saw different bytes than a live reader")
	}
}

// TestConcurrentInjectAndCancel races event injections against a
// cancellation on a live run: every injection answers 202, 400, or 409,
// and the run lands in a terminal state. Run under -race this exercises
// the controller's admission locking against the epoch checkpoints.
func TestConcurrentInjectAndCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A longer scenario so injections land while the run is live.
	body := `{
		"config": {"hosts": 2, "persistent": true, "shards": 2},
		"scenario": {"name": "long", "phases": [
			{"name": "warm", "blocks": 20000},
			{"name": "steady", "blocks": 20000}
		]}
	}`
	id := createRun(t, ts, body)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ev := fmt.Sprintf(`{"kind": "flush", "host": %d, "fraction": 0.5}`, i%2)
			status, b := do(t, http.MethodPost, ts.URL+"/v1/runs/"+id+"/events", ev)
			if status != http.StatusAccepted && status != http.StatusConflict {
				t.Errorf("inject = %d: %s", status, b)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		status, b := do(t, http.MethodDelete, ts.URL+"/v1/runs/"+id, "")
		if status != http.StatusAccepted && status != http.StatusNoContent {
			t.Errorf("cancel = %d: %s", status, b)
		}
	}()
	wg.Wait()
	lines := streamLines(t, ts, id) // blocks until the stream closes
	if typ := lineType(t, lines[len(lines)-1]); typ != "end" {
		t.Fatalf("stream ends with %q", typ)
	}
	status, b := do(t, http.MethodGet, ts.URL+"/v1/runs/"+id, "")
	if status != http.StatusOK {
		t.Fatalf("get = %d: %s", status, b)
	}
	var info RunInfo
	if err := unmarshal(b, &info); err != nil {
		t.Fatal(err)
	}
	if !RunState(info.State).Terminal() {
		t.Fatalf("run state %q not terminal after stream closed", info.State)
	}
}

// TestCloseCancelsEverything shuts the server down with pending and
// running work and requires every stream to terminate.
func TestCloseCancelsEverything(t *testing.T) {
	s := New(Config{MaxConcurrent: 1})
	specs := make([]*Run, 0, 3)
	for i := 0; i < 3; i++ {
		spec, err := ParseRunRequest([]byte(tinyScenarioBody))
		if err != nil {
			t.Fatal(err)
		}
		run, err := s.submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, run)
	}
	s.Close()
	for _, run := range specs {
		if st := run.State(); !st.Terminal() {
			t.Errorf("run %s state %s after Close", run.ID(), st)
		}
		if _, done := run.hub.next(1 << 30); !done {
			t.Errorf("run %s stream still open after Close", run.ID())
		}
	}
	if _, err := s.submit(&RunSpec{}); err == nil {
		t.Fatal("submit after Close succeeded")
	}
}
