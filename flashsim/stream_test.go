package flashsim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// streamConfig is a small two-host configuration for streaming tests.
func streamConfig() Config {
	cfg := ScaledConfig(4096)
	cfg.Hosts = 2
	cfg.PersistentFlash = true
	cfg.Shards = 1
	return cfg
}

// resolved returns Resolve(cfg, sc), failing the test on an error: the
// configuration a run controller is built for.
func resolved(t *testing.T, cfg Config, sc *Scenario) Config {
	t.Helper()
	cfg, err := Resolve(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// streamScenario is a short two-phase scenario with one scripted flush.
func streamScenario() *Scenario {
	return &Scenario{
		Name: "stream-test",
		Phases: []ScenarioPhase{
			{Name: "warm", Blocks: 4000},
			{Name: "steady", Blocks: 4000,
				Events: []ScenarioEvent{{Kind: scenario.EventFlush, Host: 1, Fraction: 0.5}}},
		},
	}
}

// TestStreamMatchesBatch locks the core streaming contract: a streaming
// run with hooks attached but no controller activity produces a result
// bit-identical to the batch RunScenario at the same shard count, and the
// hook-observed sample/phase/event sequences match the result exactly.
func TestStreamMatchesBatch(t *testing.T) {
	cfg := streamConfig()
	sc := streamScenario()

	batch, err := RunScenario(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}

	var (
		times  []float64
		rows   [][]float64
		phases []PhaseResult
		events []EventResult
	)
	hooks := ScenarioHooks{
		Sample: func(sec float64, row []float64) {
			times = append(times, sec)
			rows = append(rows, append([]float64(nil), row...))
		},
		Phase: func(p PhaseResult) { phases = append(phases, p) },
		Event: func(e EventResult) { events = append(events, e) },
	}
	live, err := RunScenarioStream(cfg, sc, hooks, NewRunController(resolved(t, cfg, sc)))
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(scrubScenarioRuntime(batch), scrubScenarioRuntime(live)) {
		t.Errorf("streamed result diverged from batch:\nbatch: %s\nlive:  %s", batch, live)
	}
	if len(times) != live.Telemetry.Len() {
		t.Fatalf("sample hook fired %d times, series has %d rows", len(times), live.Telemetry.Len())
	}
	for i := range times {
		if times[i] != live.Telemetry.Time(i) || !reflect.DeepEqual(rows[i], live.Telemetry.Row(i)) {
			t.Fatalf("sample %d: hook saw (%v, %v), series has (%v, %v)",
				i, times[i], rows[i], live.Telemetry.Time(i), live.Telemetry.Row(i))
		}
	}
	if !reflect.DeepEqual(phases, live.Phases) {
		t.Errorf("phase hook sequence %+v != result phases %+v", phases, live.Phases)
	}
	if !reflect.DeepEqual(events, live.Events) {
		t.Errorf("event hook sequence %+v != result events %+v", events, live.Events)
	}
}

// TestStreamSampleEncodesLikeBatchExport locks the over-the-wire framing:
// encoding each hook-delivered row with stats.AppendRowNDJSON reproduces
// the batch telemetry NDJSON export byte for byte.
func TestStreamSampleEncodesLikeBatchExport(t *testing.T) {
	cfg := streamConfig()
	sc := streamScenario()
	cols := TelemetryColumns()
	var lines []byte
	hooks := ScenarioHooks{Sample: func(sec float64, row []float64) {
		lines = stats.AppendRowNDJSON(lines, cols, sec, row)
		lines = append(lines, '\n')
	}}
	live, err := RunScenarioStream(cfg, sc, hooks, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := live.Telemetry.WriteNDJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if string(lines) != sb.String() {
		t.Errorf("streamed NDJSON != batch export:\nstream: %q\nbatch:  %q", lines, sb.String())
	}
}

// TestStreamCancel covers cooperative cancellation from inside a run.
func TestStreamCancel(t *testing.T) {
	cfg := streamConfig()
	ctl := NewRunController(resolved(t, cfg, streamScenario()))
	n := 0
	hooks := ScenarioHooks{Sample: func(float64, []float64) {
		if n++; n == 2 {
			ctl.Cancel()
		}
	}}
	_, err := RunScenarioStream(cfg, streamScenario(), hooks, ctl)
	if !errors.Is(err, ErrRunCanceled) {
		t.Fatalf("err = %v, want ErrRunCanceled", err)
	}
	if !ctl.Canceled() {
		t.Fatal("controller does not report canceled")
	}
	if err := ctl.Inject(ScenarioEvent{Kind: scenario.EventCrash, Host: 0}); !errors.Is(err, ErrRunCanceled) {
		t.Fatalf("Inject after cancel = %v, want ErrRunCanceled", err)
	}
}

// TestStreamInjectsEvents drives one live injection of every event kind,
// each from its own Sample hook: the event executes at the barrier that
// follows the sample, so placement is deterministic. Every event reaches
// the Event hook and the final result marked Injected, only initiates its
// work (Seconds stays exactly 0), and the run completes normally. The
// event results and the run's hash are pinned, locking the injected
// semantics bit for bit.
func TestStreamInjectsEvents(t *testing.T) {
	cfg := streamConfig()
	cfg.FilerReplicas = 2
	inject := []ScenarioEvent{
		{Kind: scenario.EventCrash, Host: 0},
		{Kind: scenario.EventFlush, Host: 1, Fraction: 0.5},
		{Kind: scenario.EventLeave, Host: 1},
		{Kind: scenario.EventJoin, Host: 1},
		{Kind: scenario.EventFilerCrash, Partition: 0, Replica: 1},
		{Kind: scenario.EventFilerRecover, Partition: 0, Replica: 1},
	}
	ctl := NewRunController(resolved(t, cfg, streamScenario()))
	next := 0
	var hooked []EventResult
	hooks := ScenarioHooks{
		Sample: func(float64, []float64) {
			if next < len(inject) {
				if err := ctl.Inject(inject[next]); err != nil {
					t.Errorf("Inject %s: %v", inject[next].Kind, err)
				}
				next++
			}
		},
		Event: func(e EventResult) { hooked = append(hooked, e) },
	}
	res, err := RunScenarioStream(cfg, streamScenario(), hooks, ctl)
	if err != nil {
		t.Fatal(err)
	}
	var got []EventResult
	for _, e := range res.Events {
		if e.Injected {
			got = append(got, e)
		}
	}
	want := []EventResult{
		{Phase: 0, Kind: "crash", Host: 0, Dropped: 354, Injected: true},
		{Phase: 0, Kind: "flush", Host: 1, Dropped: 738, Injected: true},
		{Phase: 0, Kind: "leave", Host: 1, Flushed: 10, Injected: true},
		{Phase: 0, Kind: "join", Host: 1, Injected: true},
		{Phase: 1, Kind: "filer-crash", Replica: 1, Injected: true},
		{Phase: 1, Kind: "filer-recover", Replica: 1, ResyncSource: "group", Injected: true},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("injected events:\n got %#v\nwant %#v", got, want)
	}
	if !reflect.DeepEqual(hooked, res.Events) {
		t.Errorf("event hook sequence %+v != result events %+v", hooked, res.Events)
	}
	h := sha256.New()
	h.Write([]byte(scrubScenarioRuntime(res).String()))
	h.Write([]byte(res.Telemetry.CSV()))
	if sum, want := hex.EncodeToString(h.Sum(nil)), "8abdb40c6c59b5d39e00c855e278dbed06a0f864c6dcd37a94fbf6138352487f"; sum != want {
		t.Errorf("injected run hash %s, want %s", sum, want)
	}
}

// An injected leave of the last attached host fails the run the same way
// a scripted one does: both injections below execute at the first barrier,
// and the second would leave no host to serve the trace.
func TestStreamInjectedLeaveLastHostFails(t *testing.T) {
	cfg := streamConfig()
	ctl := NewRunController(resolved(t, cfg, streamScenario()))
	for h := 0; h < cfg.Hosts; h++ {
		if err := ctl.Inject(ScenarioEvent{Kind: scenario.EventLeave, Host: h}); err != nil {
			t.Fatalf("Inject leave host %d: %v", h, err)
		}
	}
	_, err := RunScenarioStream(cfg, streamScenario(), ScenarioHooks{}, ctl)
	if err == nil || !strings.Contains(err.Error(), "cannot detach the last attached host") {
		t.Fatalf("err = %v, want last-host detach failure", err)
	}
}

// TestRunControllerInjectValidation covers the Inject-time admission
// checks against the run layout.
func TestRunControllerInjectValidation(t *testing.T) {
	cfg := streamConfig() // 2 hosts, 1 partition, 1 replica
	ctl := NewRunController(resolved(t, cfg, streamScenario()))
	for _, tc := range []struct {
		name string
		ev   ScenarioEvent
		want string
	}{
		{"host out of range", ScenarioEvent{Kind: scenario.EventCrash, Host: 2}, "out of range"},
		{"unknown kind", ScenarioEvent{Kind: "reboot"}, "unknown event kind"},
		{"partition out of range", ScenarioEvent{Kind: scenario.EventFilerCrash, Partition: 1}, "out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := ctl.Inject(tc.ev)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
	if err := ctl.Inject(ScenarioEvent{Kind: scenario.EventFlush, Host: 1}); err != nil {
		t.Fatalf("valid injection rejected: %v", err)
	}
	if evs := ctl.takePending(); len(evs) != 1 || evs[0].Fraction != 1 {
		t.Fatalf("pending = %+v, want one normalized flush", evs)
	}
}

// TestCheckScenarioAndLayout covers the fail-fast admission gate
// (Resolve) and the filer geometry it resolves: the scenario's filer spec
// folded in, the defaults of a steady-state run, and a scripted event
// checked against the resolved hosts.
func TestCheckScenarioAndLayout(t *testing.T) {
	cfg := streamConfig()
	sc := streamScenario()
	sc.Filer = &ScenarioFilerSpec{Partitions: 2, Replicas: 2}
	eff, err := Resolve(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if eff.FilerPartitions != 2 || eff.FilerReplicas != 2 || eff.FilerWriteQuorum != 2 {
		t.Fatalf("scenario layout = (%d, %d, quorum %d), want (2, 2, quorum 2)",
			eff.FilerPartitions, eff.FilerReplicas, eff.FilerWriteQuorum)
	}
	base, err := Resolve(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if base.FilerPartitions != 1 || base.FilerReplicas != 1 || base.FilerWriteQuorum != 1 {
		t.Fatalf("base layout = (%d, %d, quorum %d), want (1, 1, quorum 1)",
			base.FilerPartitions, base.FilerReplicas, base.FilerWriteQuorum)
	}

	bad := streamScenario()
	bad.Phases[1].Events[0].Host = 7
	_, err = Resolve(cfg, bad)
	if err == nil || !strings.Contains(err.Error(), "host 7") ||
		!strings.Contains(err.Error(), "scenario "+bad.Name+" phase "+bad.Phases[1].Name) {
		t.Fatalf("Resolve accepted out-of-range host or did not name the phase: %v", err)
	}
	if bad.Phases[1].Events[0].Host != 7 {
		t.Fatal("Resolve mutated the caller's scenario")
	}
}

// TestNewScenarioReport locks the scenario report section: schema, the
// phase/event breakdown, the headline aggregates, and a ReadReport round
// trip.
func TestNewScenarioReport(t *testing.T) {
	cfg := streamConfig()
	sc := streamScenario()
	res, err := RunScenario(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewScenarioReport(cfg, res)
	if rep.Schema != ReportSchema {
		t.Fatalf("schema %q, want %q", rep.Schema, ReportSchema)
	}
	s := rep.Scenario
	if s == nil || s.Name != "stream-test" || len(s.Phases) != 2 || len(s.Events) != 1 {
		t.Fatalf("scenario section %+v", s)
	}
	if s.TelemetrySamples != res.Telemetry.Len() {
		t.Errorf("telemetry samples %d, want %d", s.TelemetrySamples, res.Telemetry.Len())
	}
	if s.Events[0].Kind != string(scenario.EventFlush) || s.Events[0].Injected {
		t.Errorf("event %+v, want scripted flush", s.Events[0])
	}
	if rep.ReadLatencyMicros != res.ReadLatencyMicros || rep.RAMHitRate != res.RAMHitRate {
		t.Error("headline metrics not taken from scenario totals")
	}
	if res.RAMHitRate == 0 || res.Hosts.FilerWritebacks == 0 {
		t.Errorf("whole-run totals empty: hit=%v wb=%d", res.RAMHitRate, res.Hosts.FilerWritebacks)
	}
	if rep.Counters["blocks_issued"] != res.BlocksIssued || rep.Counters["scenario_events"] != 1 {
		t.Errorf("counters %+v", rep.Counters)
	}

	var sb strings.Builder
	if err := rep.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport([]byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("report round trip changed:\n%+v\n%+v", rep, back)
	}
}

// scenarioReportGoldens pins the scenario report JSON, runtime footprint
// zeroed, as captured before the scenario result embedded Result: the
// report keeps its scenario-only counter set and its phase and event
// records keep their wire names. The latency percentiles and the flash
// busy fraction were re-pinned when the report began to carry them; no
// other byte moved.
var scenarioReportGoldens = []struct {
	name string
	cfg  func() Config
	sc   func() *Scenario
	want string
}{
	{"stream-test", streamConfig, streamScenario, "b6e2db25ac23c65f855760dfd533db9c881a6251f11d8806666b91a2267e6c68"},
	{"crash-recovery", func() Config { return scenarioGoldenConfig("crash-recovery") }, func() *Scenario {
		sc, _ := BuiltinScenario("crash-recovery")
		return sc
	}, "b6b6126a7c825866b9995760136b1facd8652cef0a43aae1b2782eceb26f413f"},
}

func TestScenarioReportPinned(t *testing.T) {
	for _, tc := range scenarioReportGoldens {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			res, err := RunScenario(cfg, tc.sc())
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := NewScenarioReport(cfg, scrubScenarioRuntime(res)).WriteJSON(&sb); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256([]byte(sb.String()))
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("scenario report drifted:\ngot  %s\nwant %s\n%s", got, tc.want, sb.String())
			}
		})
	}
}
