package serve

import (
	"fmt"
	"sync"

	"repro/flashsim"
)

// RunState is the lifecycle state of a submitted run.
type RunState string

// Run lifecycle states. A run moves pending -> running -> one of the
// three terminal states; a pending run canceled before its worker picks
// it up goes straight to canceled.
const (
	StatePending  RunState = "pending"
	StateRunning  RunState = "running"
	StateDone     RunState = "done"
	StateFailed   RunState = "failed"
	StateCanceled RunState = "canceled"
)

// terminal reports whether s is a terminal state.
func (s RunState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// run is one submitted simulation: its spec, its live controller (nil for
// steady-state runs, which have no injection surface), its stream hub,
// and the mutable lifecycle state.
type run struct {
	id   string
	spec *runSpec
	ctl  *flashsim.RunController
	hub  *hub

	mu     sync.Mutex
	state  RunState
	errMsg string
	report []byte // marshaled flashsim report, set in terminal done state
}

// ID returns the run's registry identifier.
func (r *run) ID() string { return r.id }

// State returns the run's current lifecycle state.
func (r *run) State() RunState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Info returns a point-in-time public view of the run.
func (r *run) Info() RunInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RunInfo{
		ID:       r.id,
		State:    string(r.state),
		Scenario: r.spec.scenarioName(),
		Builtin:  r.spec.Builtin,
		Hosts:    r.spec.Config.Hosts,
		Shards:   r.spec.Config.Shards,
		Error:    r.errMsg,
	}
}

// RunInfo is the public JSON view of a run, returned by the list and get
// endpoints.
type RunInfo struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Scenario string `json:"scenario,omitempty"`
	Builtin  string `json:"builtin,omitempty"`
	Hosts    int    `json:"hosts"`
	Shards   int    `json:"shards,omitempty"`
	Error    string `json:"error,omitempty"`
}

// start moves a pending run to running. It returns false when the run was
// canceled before a worker reached it, in which case the worker must not
// execute it.
func (r *run) start() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StatePending {
		return false
	}
	r.state = StateRunning
	return true
}

// finish records the run's terminal state and, when done, its report.
func (r *run) finish(state RunState, report []byte, errMsg string) {
	r.mu.Lock()
	r.state = state
	r.report = report
	r.errMsg = errMsg
	r.mu.Unlock()
}

// cancel requests cancellation. Pending runs flip to canceled on the
// spot; running scenario runs are canceled cooperatively through the
// controller at the next epoch barrier. Running steady-state runs have
// no checkpoint surface, so cancel only reaches them while pending.
// Returns the state observed after the request.
func (r *run) cancel() RunState {
	r.mu.Lock()
	if r.state == StatePending {
		r.state = StateCanceled
		r.mu.Unlock()
		r.hub.publish("end", endLine(StateCanceled, ""))
		r.hub.close()
		return StateCanceled
	}
	state := r.state
	r.mu.Unlock()
	if state == StateRunning && r.ctl != nil {
		r.ctl.Cancel()
	}
	return state
}

// Report returns the stored report bytes, or false when the run has not
// produced one (not yet done, failed, or canceled).
func (r *run) Report() ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.state != StateDone || r.report == nil {
		return nil, false
	}
	return r.report, true
}

// registry tracks all runs the daemon knows about, bounded by maxRuns.
// IDs are monotonic ("r1", "r2", ...) and never reused within a process,
// so a deleted run's URL cannot silently start naming a different run.
type registry struct {
	mu      sync.Mutex
	runs    map[string]*run
	order   []string
	nextID  int
	maxRuns int
}

func newRegistry(maxRuns int) *registry {
	return &registry{runs: make(map[string]*run), maxRuns: maxRuns}
}

// errRegistryFull is returned by add when the run table is at capacity;
// the client must delete finished runs (or wait) before submitting more.
var errRegistryFull = fmt.Errorf("run table full")

// add registers a new pending run for the given spec.
func (g *registry) add(spec *runSpec, ctl *flashsim.RunController) (*run, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.runs) >= g.maxRuns {
		return nil, errRegistryFull
	}
	g.nextID++
	r := &run{
		id:    fmt.Sprintf("r%d", g.nextID),
		spec:  spec,
		ctl:   ctl,
		hub:   &hub{},
		state: StatePending,
	}
	g.runs[r.id] = r
	g.order = append(g.order, r.id)
	return r, nil
}

// get looks a run up by ID.
func (g *registry) get(id string) (*run, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.runs[id]
	return r, ok
}

// remove deletes a terminal run from the table, freeing its slot. It
// refuses to remove a live run.
func (g *registry) remove(id string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.runs[id]
	if !ok {
		return fmt.Errorf("unknown run %q", id)
	}
	if !r.State().terminal() {
		return fmt.Errorf("run %s is %s; cancel it first", id, r.State())
	}
	delete(g.runs, id)
	for i, oid := range g.order {
		if oid == id {
			g.order = append(g.order[:i], g.order[i+1:]...)
			break
		}
	}
	return nil
}

// list returns every known run in submission order.
func (g *registry) list() []*run {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]*run, 0, len(g.order))
	for _, id := range g.order {
		out = append(out, g.runs[id])
	}
	return out
}
