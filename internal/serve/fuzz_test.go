package serve

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/scenario/scenariotest"
)

// FuzzRunRequest fuzzes the full POST /v1/runs admission path: decoding,
// configuration building, scenario parsing, and scenario-vs-config cross
// validation. Any input must either produce a fully validated RunSpec or
// a non-empty error — never a panic and never a spec that the simulator
// would later reject.
func FuzzRunRequest(f *testing.F) {
	for _, builtin := range []string{"warmup", "burst", "ws-shift", "crash-recovery", "churn", "filer-crash"} {
		f.Add(fmt.Sprintf(`{"builtin": %q, "config": {"hosts": 2, "persistent": true}}`, builtin))
	}
	f.Add(`{}`)
	f.Add(tinyScenarioBody)
	f.Add(tinySteadyBody)
	f.Add(`{"config": {"scale": 1024, "arch": "unified", "ram_gb": 4, "write_pct": 25,
		"filer": {"partitions": 2, "replicas": 3, "object_tier": true}}}`)
	f.Add(`{"config": {"write_pct": 0, "prefetch": 0, "wall_profile": true}}`)
	f.Add(`{"config": null}`)
	f.Add(`{"config": {"hosts": 0}}`)
	f.Add(`{"config": {"scale": 0}}`)
	f.Add(`{"config": {"filer": {"object_read_us": 5}}}`)
	for _, pc := range scenariotest.ParseErrorCases {
		f.Add(fmt.Sprintf(`{"scenario": %s}`, pc.JSON))
	}
	f.Fuzz(func(t *testing.T, body string) {
		spec, err := ParseRunRequest([]byte(body))
		if err != nil {
			if spec != nil {
				t.Fatalf("error %v with non-nil spec", err)
			}
			if err.Error() == "" {
				t.Fatal("empty error message")
			}
			return
		}
		if spec == nil {
			t.Fatal("nil spec without error")
		}
		// The accepted config must stand on its own: a spec that passed
		// admission can never fail validation at execution time.
		cfg := spec.Config
		if verr := cfg.Validate(); verr != nil {
			t.Fatalf("accepted config fails Validate: %v\nbody: %s", verr, body)
		}
		if spec.Scenario != nil {
			if verr := spec.Scenario.Validate(); verr != nil {
				t.Fatalf("accepted scenario fails Validate: %v\nbody: %s", verr, body)
			}
		}
		if _, err := json.Marshal(RunInfo{ID: "r1", State: string(StatePending), Scenario: spec.ScenarioName()}); err != nil {
			t.Fatalf("run info marshal: %v", err)
		}
	})
}
