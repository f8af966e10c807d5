package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/flashsim"
	"repro/internal/scenario"
)

// DefaultScale is the size scale divisor applied when a run request does
// not set one. The daemon defaults to a much smaller model than the CLI's
// paper baseline (1:128) so an empty request is a sub-second run, not a
// multi-minute one; requests that want paper-scale fidelity say so.
const DefaultScale = 4096

// RunConfig is the wire form of a simulation configuration: the same
// struct as the flashsim CLI's flags. A request's config is decoded onto
// flashsim.DefaultRunConfig(DefaultScale), so an absent field keeps its
// default and an explicit 0 is zero.
type RunConfig = flashsim.RunConfig

// RunRequest is the body of POST /v1/runs: an optional configuration plus
// at most one of a built-in scenario name or an inline scenario document.
// With neither, the run is a steady-state measurement.
type RunRequest struct {
	Config   *RunConfig      `json:"config,omitempty"`
	Builtin  string          `json:"builtin,omitempty"`
	Scenario json.RawMessage `json:"scenario,omitempty"`
}

// RunSpec is a fully validated, ready-to-execute run: the configuration
// the run executes (flashsim.Resolve's result: the request and scenario
// filer specs folded in, every default resolved) and the scenario, nil
// for a steady-state run. Reports, the run view and live injections all
// see this configuration.
type RunSpec struct {
	Config   flashsim.Config
	Scenario *flashsim.Scenario
	Builtin  string
}

// ScenarioName names the run's scenario, or "" for a steady-state run.
func (s *RunSpec) ScenarioName() string {
	if s.Scenario == nil {
		return ""
	}
	return s.Scenario.Name
}

// ParseRunRequest decodes and fully validates a POST /v1/runs body.
// Unknown fields anywhere in the document are rejected, so a request
// that typos a knob fails loudly instead of running with the default.
func ParseRunRequest(data []byte) (*RunSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	// The config decodes onto the defaults, so an absent field (or a
	// null config, which leaves rc untouched) keeps its default.
	rc := flashsim.DefaultRunConfig(DefaultScale)
	req := RunRequest{Config: &rc}
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("run request: %w", err)
	}
	if dec.More() {
		return nil, errors.New("run request: trailing data after JSON document")
	}
	cfg, err := rc.Config()
	if err != nil {
		return nil, fmt.Errorf("run request: %w", err)
	}
	spec := &RunSpec{Builtin: req.Builtin}
	switch {
	case req.Builtin != "" && len(req.Scenario) > 0:
		return nil, errors.New(`run request: "builtin" and "scenario" are mutually exclusive`)
	case req.Builtin != "":
		if spec.Scenario, err = flashsim.BuiltinScenario(req.Builtin); err != nil {
			return nil, fmt.Errorf("run request: %w", err)
		}
	case len(req.Scenario) > 0:
		if spec.Scenario, err = scenario.Parse(req.Scenario); err != nil {
			return nil, fmt.Errorf("run request: %w", err)
		}
	}
	if spec.Config, err = flashsim.Resolve(cfg, spec.Scenario); err != nil {
		return nil, fmt.Errorf("run request: %w", err)
	}
	return spec, nil
}
