package flashsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// scenarioGoldenConfig returns the golden-lock configuration for a builtin
// scenario: the 1:4096 baseline, with the tweaks a scenario needs (a
// second host for churn, a persistent cache for crash recovery).
func scenarioGoldenConfig(name string) Config {
	cfg := ScaledConfig(4096)
	switch name {
	case "churn":
		cfg.Hosts = 2
	case "crash-recovery":
		cfg.PersistentFlash = true
	}
	return cfg
}

// scenarioChecksum hashes everything a scenario run produced: the phase
// and event summary plus the full telemetry series.
func scenarioChecksum(t *testing.T, cfg Config, name string) string {
	t.Helper()
	sc, err := BuiltinScenario(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunScenario(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write([]byte(scrubScenarioRuntime(res).String()))
	h.Write([]byte(res.Telemetry.CSV()))
	res.Telemetry.WriteNDJSON(h)
	return hex.EncodeToString(h.Sum(nil))
}

// Golden determinism lock for the scenario engine: each built-in scenario
// at the single-host 1:4096 baseline (Shards 0, i.e. one cluster shard)
// must hash to the captured value, and a repeat run in the same process
// must reproduce it (the generator, sampler and fault events share no
// hidden global state).
var scenarioGoldens = map[string]string{
	"burst":          "bd9c43d24826333a531fd8e01a6b9bef120c5e1aec3b9aafc04b3b32216b42f5",
	"churn":          "e8bf6dfb73dd01288b94781cdad005540ece448b9fea12a6a336050b6426015c",
	"crash-recovery": "f08167a2c2f32c2887acb4bec774fd21463f552d4f5f09c0e89e85349dbb786d",
	"filer-crash":    "0070614b79a27a34c0f5af78e1d3e91b1a5ce04850a132e6eaeb23683a7c02fe",
	"warmup":         "5cc8a0ce33346216a0e76da99a243b972481e22acb3dc425ee2ca9ee18558a42",
	"ws-shift":       "0f9c26adb4518f61ffba90f18e001f21684b326d1d31e4b156ac100af73dd649",
}

func TestScenarioGoldenChecksums(t *testing.T) {
	for _, name := range BuiltinScenarioNames() {
		t.Run(name, func(t *testing.T) {
			want, ok := scenarioGoldens[name]
			if !ok {
				t.Fatalf("builtin %s has no golden checksum; add one", name)
			}
			cfg := scenarioGoldenConfig(name)
			first := scenarioChecksum(t, cfg, name)
			second := scenarioChecksum(t, cfg, name)
			if first != second {
				t.Fatalf("repeat runs differ:\n%s\n%s", first, second)
			}
			if first != want {
				t.Errorf("scenario checksum drifted:\ngot  %s\nwant %s", first, want)
			}
		})
	}
}

// scenarioArchGoldens pins the fault-hook scenarios (churn's full flush
// and drop, crash-recovery's crash and recovery scan) on the two
// architectures the single-host goldens above leave out; captured before
// the host's cache tiers moved into one table. The lookaside crash keeps
// scenarioGoldenConfig's persistent flash; a unified cache loses both
// media in a crash, so its crash runs with volatile flash.
var scenarioArchGoldens = []struct {
	scenario string
	arch     Architecture
	want     string
}{
	{"churn", Lookaside, "1dc633581aeb27d87d9542538ce42d8da7c6c8ddffba660ac9a251cc79da7ee6"},
	{"churn", Unified, "d0790270a5476f13ae5c16081f8d5724d8c46cd2b220a7ae2245ef43edbb6bab"},
	{"crash-recovery", Lookaside, "c0e28929867183aa7e902d73d24df6b9d1ec53e8db0eb88b0c37dbf0a912e1dc"},
	{"crash-recovery", Unified, "ceaaee8d01d73e7b2cfba7c8d063215cf31861d115af9411804dbe26ec2217ae"},
}

func TestScenarioArchGoldenChecksums(t *testing.T) {
	for _, tc := range scenarioArchGoldens {
		t.Run(tc.scenario+"/"+tc.arch.String(), func(t *testing.T) {
			cfg := scenarioGoldenConfig(tc.scenario)
			cfg.Arch = tc.arch
			if tc.arch == Unified {
				cfg.PersistentFlash = false
			}
			if got := scenarioChecksum(t, cfg, tc.scenario); got != tc.want {
				t.Errorf("scenario checksum drifted:\ngot  %s\nwant %s", got, tc.want)
			}
		})
	}
}

// The batch runner's determinism contract extends to scenarios: results
// are identical at every parallelism.
func TestScenarioBatchParallelIdentical(t *testing.T) {
	names := BuiltinScenarioNames()
	run := func(parallel int) []string {
		cfgs := make([]Config, len(names))
		scs := make([]*Scenario, len(names))
		for i, name := range names {
			cfgs[i] = scenarioGoldenConfig(name)
			sc, err := BuiltinScenario(name)
			if err != nil {
				t.Fatal(err)
			}
			scs[i] = sc
		}
		results, err := RunScenarioBatch(cfgs, scs, parallel)
		if err != nil {
			t.Fatal(err)
		}
		sums := make([]string, len(results))
		for i, res := range results {
			h := sha256.New()
			h.Write([]byte(scrubScenarioRuntime(res).String()))
			h.Write([]byte(res.Telemetry.CSV()))
			sums[i] = hex.EncodeToString(h.Sum(nil))
		}
		return sums
	}
	seq := run(1)
	par := run(4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("scenario %s differs between -parallel 1 and 4", names[i])
		}
	}
}

func TestRunScenarioValidation(t *testing.T) {
	cfg := ScaledConfig(4096)
	churn, _ := BuiltinScenario("churn")
	if _, err := RunScenario(cfg, churn); err == nil {
		t.Error("churn accepted on a single-host config")
	}
	crash, _ := BuiltinScenario("crash-recovery")
	crash.Phases[1].Events[0].Host = 7
	if _, err := RunScenario(cfg, crash); err == nil {
		t.Error("event host beyond config host count accepted")
	}
	warm, _ := BuiltinScenario("warmup")
	bad := cfg
	bad.Hosts = 0
	if _, err := RunScenario(bad, warm); err == nil {
		t.Error("invalid config accepted")
	}
	empty := &Scenario{Name: "empty"}
	if _, err := RunScenario(cfg, empty); err == nil {
		t.Error("scenario with no phases accepted")
	}
}

// A working set so small that a WSMultiple duration truncates to zero
// blocks must still terminate (the bound clamps to one block rather than
// degrading to "unlimited" over the effectively infinite trace).
func TestRunScenarioTinyWorkingSetTerminates(t *testing.T) {
	cfg := ScaledConfig(4096)
	cfg.Workload.WorkingSetBlocks = 1
	sc := &Scenario{
		Name:   "tiny",
		Phases: []ScenarioPhase{{Name: "p", WSMultiple: 0.5}},
	}
	res, err := RunScenario(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if res.BlocksIssued == 0 {
		t.Error("clamped phase issued nothing")
	}
}

// A sampling period that rounds to zero simulated time must be a load-time
// error, not a ticker panic.
func TestRunScenarioRejectsZeroSamplePeriod(t *testing.T) {
	sc := &Scenario{
		Name:              "fast",
		SampleEveryMillis: 1e-9,
		Phases:            []ScenarioPhase{{Name: "p", Blocks: 10}},
	}
	if _, err := RunScenario(ScaledConfig(4096), sc); err == nil {
		t.Error("zero-rounding sampling period accepted")
	}
}

// RunScenario must not mutate the caller's scenario (normalization happens
// on a clone).
func TestRunScenarioDoesNotMutateInput(t *testing.T) {
	sc, _ := BuiltinScenario("warmup")
	if sc.SampleEveryMillis != 0 {
		t.Fatal("warmup builtin unexpectedly sets a sampling period")
	}
	if _, err := RunScenario(ScaledConfig(4096), sc); err != nil {
		t.Fatal(err)
	}
	if sc.SampleEveryMillis != 0 {
		t.Error("RunScenario normalized the caller's scenario in place")
	}
}

// LoadScenario reads a scenario file back to the scenario that wrote it,
// validated as RunScenario would, and reports a missing file or malformed
// JSON as an error.
func TestLoadScenario(t *testing.T) {
	dir := t.TempDir()
	for _, name := range BuiltinScenarioNames() {
		sc, _ := BuiltinScenario(name)
		data, err := json.MarshalIndent(sc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadScenario(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sc.Validate(); err != nil { // fills the defaults Load fills
			t.Fatal(err)
		}
		if !reflect.DeepEqual(loaded, sc) {
			t.Errorf("%s: loaded %+v, wrote %+v", name, loaded, sc)
		}
	}
	if _, err := LoadScenario(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name": "x", "phases": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadScenario(bad); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// The warmup scenario's reason to exist: the steady phase must show a
// warmer flash cache than the cold phase, and telemetry must resolve the
// ramp (early samples colder than late samples).
func TestWarmupScenarioRamp(t *testing.T) {
	sc, _ := BuiltinScenario("warmup")
	res, err := RunScenario(ScaledConfig(4096), sc)
	if err != nil {
		t.Fatal(err)
	}
	cold, steady := res.Phases[0], res.Phases[1]
	if steady.FlashHitRate <= cold.FlashHitRate {
		t.Errorf("steady flash hit %.3f not above cold %.3f",
			steady.FlashHitRate, cold.FlashHitRate)
	}
	ci := res.Telemetry.ColumnIndex(ColFlashHit)
	hits := make([]float64, res.Telemetry.Len())
	for i := range hits {
		hits[i] = res.Telemetry.Row(i)[ci]
	}
	if len(hits) < 6 {
		t.Fatalf("only %d telemetry samples", len(hits))
	}
	early := (hits[1] + hits[2]) / 2 // row 0 may predate any traffic
	late := (hits[len(hits)-2] + hits[len(hits)-3]) / 2
	if late <= early {
		t.Errorf("flash hit rate did not ramp: early %.3f late %.3f", early, late)
	}
}

// The crash-recovery scenario must show the transient: the first interval
// after the crash is colder than the last interval before it, and the
// recovery event pays a nonzero delay (persistent cache: metadata scan).
func TestCrashRecoveryScenarioTransient(t *testing.T) {
	cfg := scenarioGoldenConfig("crash-recovery")
	sc, _ := BuiltinScenario("crash-recovery")
	res, err := RunScenario(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 1 || res.Events[0].Kind != "crash" {
		t.Fatalf("events = %+v", res.Events)
	}
	if res.Events[0].Seconds <= 0 {
		t.Error("persistent-cache crash recovery took no simulated time")
	}
	if res.Events[0].Dropped == 0 {
		t.Error("crash dropped no blocks")
	}

	// Locate the crash on the telemetry clock and compare RAM hit rates
	// around it: the RAM cache dies in the crash even when flash survives.
	crashAt := res.Phases[1].StartSeconds
	ci := res.Telemetry.ColumnIndex(ColRAMHit)
	var beforeIdx, afterIdx = -1, -1
	for i := 0; i < res.Telemetry.Len(); i++ {
		if res.Telemetry.Time(i) < crashAt {
			beforeIdx = i
		} else if afterIdx == -1 && res.Telemetry.Time(i) > crashAt {
			afterIdx = i
		}
	}
	if beforeIdx < 0 || afterIdx < 0 {
		t.Fatal("could not bracket the crash in telemetry")
	}
	before, after := res.Telemetry.Row(beforeIdx)[ci], res.Telemetry.Row(afterIdx)[ci]
	if after >= before {
		t.Errorf("RAM hit rate did not drop across the crash: %.3f -> %.3f", before, after)
	}
}

// The churn scenario must detach and re-attach: the departed host serves
// nothing during the gap, the survivors absorb the traffic, and the event
// log records both transitions.
func TestChurnScenarioRedistributes(t *testing.T) {
	cfg := scenarioGoldenConfig("churn")
	sc, _ := BuiltinScenario("churn")
	res, err := RunScenario(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]string, len(res.Events))
	for i, e := range res.Events {
		kinds[i] = e.Kind
	}
	if strings.Join(kinds, ",") != "leave,join" {
		t.Fatalf("event kinds = %v", kinds)
	}
	leave := res.Events[0]
	if leave.Dropped == 0 {
		t.Error("leave dropped no blocks")
	}
	// All three phases still issue the full per-phase volume: the load is
	// redistributed, not lost.
	for _, p := range res.Phases {
		if p.BlocksIssued == 0 {
			t.Errorf("phase %s issued nothing", p.Name)
		}
	}
}
