package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/flashsim"
	"repro/internal/serve"
)

// The daemon-live workload: flashsimd's handler behind a loopback TCP
// listener, driven by a closed loop of benchParallel clients. Each client
// submits a run, injects a live crash into it, streams it, reads the report
// and deletes the run, then starts the next. Every run gets its own
// workload seed, derived from -seed and the run's sequence number.

const (
	// daemonHosts is each run's host count.
	daemonHosts = 8
	// sampleEveryMillis gives about 3.2k sample lines per run.
	sampleEveryMillis = 0.25
	// injectedHost is the host the live crash targets.
	injectedHost = 1
)

// samplePrefix starts every sample line serve emits; matching it skips a
// JSON decode per line on the hot path of the client.
var samplePrefix = []byte(`{"type":"sample"`)

type daemon struct {
	c        *child
	srv      *serve.Server
	ts       *httptest.Server
	client   *http.Client
	config   serve.RunConfig // every run's configuration but its seed
	scenario json.RawMessage // the inline crash-recovery scenario
	seq      atomic.Uint64
}

// setupDaemon starts the daemon; set-up ends once it answers /healthz.
func setupDaemon(c *child) (func(), func(), error) {
	sc, err := flashsim.BuiltinScenario("crash-recovery")
	if err != nil {
		return nil, nil, err
	}
	sc.SampleEveryMillis = sampleEveryMillis
	scJSON, err := json.Marshal(sc)
	if err != nil {
		return nil, nil, err
	}
	d := &daemon{
		c:   c,
		srv: serve.New(serve.Config{MaxConcurrent: benchParallel}),
		config: serve.RunConfig{
			Hosts: daemonHosts, Threads: 2, RAMGB: 0.25, FlashGB: 2, WSSGB: 8,
			Persistent: true, Shards: benchParallel,
		},
		scenario: scJSON,
	}
	d.ts = httptest.NewServer(d.srv.Handler())
	// Each client makes one request at a time, so it needs one connection.
	transport := &http.Transport{MaxIdleConnsPerHost: benchParallel}
	d.client = &http.Client{Transport: transport}
	stop := func() {
		d.ts.Close()
		d.srv.Close()
		transport.CloseIdleConnections()
	}
	if _, err := d.call(http.MethodGet, "/healthz", "", http.StatusOK); err != nil {
		stop()
		return nil, nil, err
	}
	work := func() {
		var wg sync.WaitGroup
		for client := 1; client <= benchParallel; client++ {
			wg.Add(1)
			go func(client int) {
				defer wg.Done()
				for done := 0; c.more(done); done++ {
					d.run(client)
				}
			}(client)
		}
		wg.Wait()
	}
	return work, stop, nil
}

// call issues one request and returns the body, failing on any status
// other than want.
func (d *daemon) call(method, path, body string, want int) ([]byte, error) {
	req, err := http.NewRequest(method, d.ts.URL+path, strings.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s = %d, want %d: %s", method, path, resp.StatusCode, want, bytes.TrimSpace(b))
	}
	return b, nil
}

// run performs one daemon run as a unit of work: its wall time runs from
// the POST to the stream's end line.
func (d *daemon) run(client int) {
	n := d.seq.Add(1)
	seed := d.c.spec.Seed*1_000_000 + n
	unit := d.c.rec.unit("run", int64(n), client)
	start := time.Now()
	turnaround, err := d.exchange(unit, seed, start)
	d.c.rec.end(unit)
	if err == nil {
		d.c.unitDone(turnaround)
	}
	d.c.outcome(err)
}

// streamEnvelope is the part of a stream line the client checks.
type streamEnvelope struct {
	Type  string          `json:"type"`
	State string          `json:"state"`
	Error string          `json:"error"`
	Data  json.RawMessage `json:"data"`
}

// exchange drives one run through the API and checks its outputs: the
// stream opens with hello, carries the injected crash among its events and
// ends done, and the report decodes as the current schema.
func (d *daemon) exchange(unit spanRef, seed uint64, start time.Time) (time.Duration, error) {
	c := d.c
	cfg := d.config
	cfg.Seed = seed
	req, err := json.Marshal(serve.RunRequest{Config: &cfg, Scenario: d.scenario})
	if err != nil {
		return 0, err
	}
	sp := c.rec.begin(unit, "POST /v1/runs")
	created, err := d.call(http.MethodPost, "/v1/runs", string(req), http.StatusCreated)
	c.rec.end(sp)
	if err != nil {
		return 0, err
	}
	c.sampleMillis("serve.admit_ms", time.Since(start))
	var info serve.RunInfo
	if err := json.Unmarshal(created, &info); err != nil {
		return 0, fmt.Errorf("run info: %w", err)
	}
	runPath := "/v1/runs/" + info.ID
	// The crash is injected before the stream is opened: the controller
	// queues it even while the run is pending and executes it at the first
	// epoch barrier. Injected later, it could miss a run that has already
	// finished, or arrive after the last barrier, where it is accepted but
	// never executed.
	if err := d.inject(unit, runPath); err != nil {
		return 0, err
	}

	stream := c.rec.begin(unit, "GET stream")
	resp, err := d.client.Get(d.ts.URL + runPath + "/stream")
	if err != nil {
		c.rec.end(stream)
		return 0, err
	}
	var (
		lines, bytesRead int
		samples          int
		sawInjected      bool
		turnaround       time.Duration
		env              streamEnvelope
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() && turnaround == 0 {
		line := sc.Bytes()
		lines++
		bytesRead += len(line) + 1
		env = streamEnvelope{Type: "sample"}
		if !bytes.HasPrefix(line, samplePrefix) {
			if err = json.Unmarshal(line, &env); err != nil {
				err = fmt.Errorf("stream line %d: %w", lines, err)
				break
			}
		}
		if lines == 1 && env.Type != "hello" {
			err = fmt.Errorf("stream opens with %q, want hello", env.Type)
			break
		}
		switch env.Type {
		case "hello":
			c.rec.mark(stream, "stream.hello")
		case "sample":
			samples++
			if samples == 1 {
				c.rec.mark(stream, "stream.first_sample")
				c.sampleMillis("serve.ttfs_ms", time.Since(start))
			}
		case "event":
			var ev flashsim.ReportEvent
			if jerr := json.Unmarshal(env.Data, &ev); jerr == nil && ev.Injected &&
				ev.Kind == "crash" && ev.Host == injectedHost {
				sawInjected = true
			}
		case "end":
			turnaround = time.Since(start)
			c.rec.mark(stream, "stream.end")
		}
	}
	if err == nil {
		err = sc.Err()
	}
	resp.Body.Close()
	c.rec.end(stream)
	c.sample("serve.stream_lines", float64(lines))
	c.sample("serve.stream_kib", float64(bytesRead)/1024)
	switch {
	case err != nil:
		return 0, fmt.Errorf("%s: %w", info.ID, err)
	case turnaround == 0:
		return 0, fmt.Errorf("%s: stream ended without an end line", info.ID)
	case env.State != string(serve.StateDone):
		return 0, fmt.Errorf("%s: run ended %s: %s", info.ID, env.State, env.Error)
	case !sawInjected:
		return 0, fmt.Errorf("%s: stream has no injected crash of host %d", info.ID, injectedHost)
	}

	t := time.Now()
	sp = c.rec.begin(unit, "GET report")
	body, err := d.call(http.MethodGet, runPath+"/report", "", http.StatusOK)
	c.rec.end(sp)
	if err != nil {
		return 0, err
	}
	c.sampleMillis("serve.report_ms", time.Since(t))
	if err := d.recordReport(body); err != nil {
		return 0, fmt.Errorf("%s: %w", info.ID, err)
	}

	sp = c.rec.begin(unit, "DELETE run")
	_, err = d.call(http.MethodDelete, runPath, "", http.StatusNoContent)
	c.rec.end(sp)
	return turnaround, err
}

// inject posts the live crash of injectedHost.
func (d *daemon) inject(unit spanRef, runPath string) error {
	t := time.Now()
	sp := d.c.rec.begin(unit, "POST events")
	_, err := d.call(http.MethodPost, runPath+"/events", fmt.Sprintf(`{"kind": "crash", "host": %d}`, injectedHost), http.StatusAccepted)
	d.c.rec.end(sp)
	d.c.sampleMillis("serve.inject_ms", time.Since(t))
	return err
}

// recordReport checks a finished run's report and samples its counters.
func (d *daemon) recordReport(body []byte) error {
	rep, err := flashsim.ReadReport(body)
	if err != nil {
		return err
	}
	if rep.Schema != flashsim.ReportSchema {
		return fmt.Errorf("report schema %q, want %q", rep.Schema, flashsim.ReportSchema)
	}
	if rep.Scenario == nil {
		return errors.New("report has no scenario section")
	}
	c := d.c
	c.sample(sampleSimSeconds, rep.SimulatedSeconds)
	c.sample("sim.events", float64(rep.Counters["events"]))
	c.sample("cache.ram_hit", 100*rep.RAMHitRate)
	c.sample("cache.flash_hit", 100*rep.FlashHitRate)
	c.sample("core.host.blocks", float64(rep.Counters["blocks_issued"]))
	c.sample("core.cluster.epochs", float64(rep.Counters["epochs"]))
	c.sample("core.cluster.barrier_msgs", float64(rep.Counters["barrier_messages"]))
	c.sample("stats.samples", float64(rep.Scenario.TelemetrySamples))
	q := 0
	for _, p := range rep.FilerPartitions {
		q = max(q, p.MaxBarrierQueue)
	}
	c.sample("filer.max_queue", float64(q))
	return nil
}
