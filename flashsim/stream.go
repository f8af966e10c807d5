package flashsim

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/scenario"
)

// This file is the incremental scenario driver behind the simulation
// daemon (internal/serve): the same sharded executor RunScenario uses,
// with three live surfaces added — observation hooks fired between
// epochs, cooperative cancellation, and fault-event injection into the
// running cluster. A streaming run with no hooks, no cancellation and no
// injections is byte-identical to the batch run, including telemetry.

// ErrRunCanceled is returned by RunScenarioStream when the run's
// controller was canceled; the partial result is discarded.
var ErrRunCanceled = errors.New("flashsim: run canceled")

// ScenarioHooks observe a streaming scenario run. All hooks are optional
// and run synchronously on the run's goroutine between epochs, so they
// must return quickly; a slow hook stalls the simulation, not just the
// observer.
type ScenarioHooks struct {
	// Sample fires once per telemetry sample, immediately after the row
	// is appended to the series, with the sample's simulated-time
	// timestamp and the value row (TelemetryColumns order). The row
	// buffer is reused across samples: copy it (or encode it, see
	// stats.AppendRowNDJSON) before returning.
	Sample func(seconds float64, row []float64)
	// Phase fires after each phase completes.
	Phase func(PhaseResult)
	// Event fires after each fault event executes — scripted and
	// injected alike (EventResult.Injected distinguishes them).
	Event func(EventResult)
}

// RunController mediates live control of one streaming run: cancellation
// and fault-event injection. It is safe for concurrent use; the run
// drains it at every epoch barrier, with the whole cluster parked at a
// globally consistent simulated time.
type RunController struct {
	hosts      int
	partitions int
	replicas   int

	mu       sync.Mutex
	canceled bool
	pending  []ScenarioEvent
}

// NewRunController builds a controller for a run of the given resolved
// configuration — the one Resolve returns, whose filer layout already
// includes the scenario's filer spec. Injected events are bounds-checked
// against that layout at Inject time (scenario.CheckLive, the rule
// Resolve applies to scripted events), so an invalid injection fails at
// the API edge instead of aborting the run.
func NewRunController(cfg Config) *RunController {
	return &RunController{hosts: cfg.Hosts, partitions: cfg.FilerPartitions, replicas: cfg.FilerReplicas}
}

// Cancel requests a cooperative stop: the run returns ErrRunCanceled at
// the next epoch barrier. Canceling a finished run is a no-op.
func (c *RunController) Cancel() {
	c.mu.Lock()
	c.canceled = true
	c.mu.Unlock()
}

// Canceled reports whether Cancel was called.
func (c *RunController) Canceled() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.canceled
}

// Inject queues one fault event for execution at the run's next epoch
// barrier. The event is validated against the run's layout here —
// injection into a canceled run or an out-of-range target fails
// immediately — but executes asynchronously; its EventResult reaches the
// caller through the Event hook and the final ScenarioResult, marked
// Injected.
func (c *RunController) Inject(ev ScenarioEvent) error {
	e := scenario.Event(ev)
	if err := scenario.CheckLive(&e, c.hosts, c.partitions, c.replicas); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.canceled {
		return ErrRunCanceled
	}
	c.pending = append(c.pending, ScenarioEvent(e))
	return nil
}

// takePending removes and returns the queued injections (nil when empty).
func (c *RunController) takePending() []ScenarioEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	evs := c.pending
	c.pending = nil
	return evs
}

// RunScenarioStream executes a scenario like RunScenario but live: hooks
// observe samples, phases and events as the cluster advances, and ctl —
// when non-nil — can cancel the run or inject fault events between
// epochs. A run with zero-value hooks and no controller activity produces
// a result bit-identical to RunScenario's.
//
// Determinism: the simulation itself stays deterministic, but injected
// events execute at whichever epoch barrier follows their wall-clock
// arrival, so a run with injections is repeatable only in distribution,
// not bit-for-bit.
func RunScenarioStream(cfg Config, sc *Scenario, hooks ScenarioHooks, ctl *RunController) (*ScenarioResult, error) {
	wallStart := time.Now()
	cfg, sc, period, err := resolve(cfg, sc)
	if err != nil {
		return nil, err
	}
	res, err := runScenarioCluster(cfg, sc, period, hooks, ctl)
	if err != nil {
		return nil, err
	}
	res.WallClockSeconds, res.PeakHeapBytes = runtimeFootprint(wallStart)
	return res, nil
}

// checkpoint services the controller between epochs: a pending
// cancellation aborts the run, then queued injections execute in arrival
// order. Nested drains (an event's own writeback drain advances the
// cluster) skip the checkpoint so injections never recurse.
func (r *clusterRun) checkpoint() error {
	if r.ctl == nil || r.inEvent {
		return nil
	}
	if r.ctl.Canceled() {
		return ErrRunCanceled
	}
	for _, ev := range r.ctl.takePending() {
		er, err := r.executeEvent(r.curPhase, ev, true)
		if err != nil {
			return fmt.Errorf("injected %s event: %w", ev.Kind, err)
		}
		r.res.Events = append(r.res.Events, er)
		if r.hooks.Event != nil {
			r.hooks.Event(er)
		}
	}
	return nil
}
