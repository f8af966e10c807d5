// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is callback-based: an event is a function scheduled to run at a
// simulated time. Events at equal times run in schedule order (FIFO), which
// together with seeded random number generation makes every simulation run
// exactly reproducible. Shared hardware (a flash device, a network segment)
// is modeled by Server, a single-server FIFO queue; pure delays (RAM access,
// filer service time) use Schedule directly.
//
// # Allocation behavior
//
// The event queue is a hand-rolled indexed 4-ary min-heap laid out directly
// over a slice of event structs: pushing an event is an append plus a
// sift-up, with no interface boxing and no per-event allocation (the prior
// implementation boxed every event into an `any` for container/heap). The
// slice doubles as its own free list — popping shrinks the length but keeps
// the backing array, so after the first Run phase reaches its high-water
// mark, steady-state Schedule/Step cycles allocate nothing, across as many
// Run/RunUntil phases as the caller interleaves.
//
// Hot callers that would otherwise allocate a closure per event can use the
// arg-carrying forms (Schedule2, At2, ScheduleDaemon2): the callback is a
// static func(any) and the argument rides inside the event struct. Passing
// a pointer (or any pointer-shaped value) as the argument does not allocate.
// Server completions (Use2, UseAt2) and the hardware models built on them
// take only this form.
package sim

import "fmt"

// Time is a simulated timestamp or duration in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// String formats the time in microseconds, the paper's reporting unit.
func (t Time) String() string {
	return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
}

// Micros returns the time as a float64 number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns the time as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// event is one scheduled callback. Exactly one of fn and afn is non-nil:
// fn is the closure form, afn the arg-carrying form whose argument is
// stored inline in the event.
type event struct {
	at     Time
	seq    uint64
	fn     func()
	afn    func(any)
	arg    any
	daemon bool
}

// noopArg is the shared placeholder completion, substituted when an
// arg-carrying schedule call passes a nil callback: the event still
// occupies the engine (a drained engine means idle hardware) and nothing
// is allocated.
func noopArg(any) {}

// eventHeap is an implicit (array-indexed) 4-ary min-heap ordered by
// (at, seq): children of slot i live at 4i+1..4i+4. The 4-ary layout
// halves tree depth versus a binary heap, trading a wider (branch-light,
// cache-local) min-of-children scan on the way down for fewer levels —
// the classic d-ary win for push-heavy workloads like a simulator, where
// every push bubbles up but many pops terminate high.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(c, min) {
				min = c
			}
		}
		if !h.less(min, i) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now       Time
	last      Time
	seq       uint64
	events    eventHeap
	processed uint64
	nonDaemon int
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// NonDaemonPending returns the number of scheduled non-daemon events. A
// zero count with events still queued means only background daemons
// (ticker rearms) remain — the condition under which Run returns and under which
// a sharded run's drain phase may stop.
func (e *Engine) NonDaemonPending() int { return e.nonDaemon }

// NextEventAt returns the timestamp of the earliest scheduled event, or
// false when the queue is empty. Sharded runs use it to bound how far a
// quiet shard may be fast-forwarded.
func (e *Engine) NextEventAt() (Time, bool) {
	if len(e.events) == 0 {
		return 0, false
	}
	return e.events[0].at, true
}

// LastEventAt returns the timestamp of the most recently executed event.
// Unlike Now, it is unaffected by RunUntil's clock advance past the final
// event, so it reports the true completion time of the work done so far.
func (e *Engine) LastEventAt() Time { return e.last }

// Schedule runs fn after delay d. A negative delay panics: the simulator
// never travels backwards in time.
func (e *Engine) Schedule(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.At(e.now+d, fn)
}

// Schedule2 is the allocation-free form of Schedule: fn is expected to be a
// static (package-level or pre-bound) func(any) and arg its state. It runs
// fn(arg) after delay d.
func (e *Engine) Schedule2(d Time, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.at2(e.now+d, fn, arg, false)
}

// scheduleDaemon2 is Schedule2 for daemon events: background activity
// (e.g. a periodic syncer's next tick) that should not by itself keep Run
// alive. Run returns when only daemon events remain.
func (e *Engine) scheduleDaemon2(d Time, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	e.at2(e.now+d, fn, arg, true)
}

// At runs fn at absolute time t, which must not be before Now.
func (e *Engine) At(t Time, fn func()) {
	e.at(t, fn)
}

// At2 is the arg-carrying form of At.
func (e *Engine) At2(t Time, fn func(any), arg any) {
	e.at2(t, fn, arg, false)
}

func (e *Engine) at(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	e.seq++
	e.nonDaemon++
	e.events = append(e.events, event{at: t, seq: e.seq, fn: fn})
	e.events.siftUp(len(e.events) - 1)
}

func (e *Engine) at2(t Time, fn func(any), arg any, daemon bool) {
	if t < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, e.now))
	}
	if fn == nil {
		// One shared placeholder serves every callback-less event; callers
		// need no nil guards of their own.
		fn, arg = noopArg, nil
	}
	e.seq++
	if !daemon {
		e.nonDaemon++
	}
	e.events = append(e.events, event{at: t, seq: e.seq, afn: fn, arg: arg, daemon: daemon})
	e.events.siftUp(len(e.events) - 1)
}

// Step runs the next event, advancing the clock. It returns false when no
// events remain.
func (e *Engine) Step() bool {
	h := e.events
	if len(h) == 0 {
		return false
	}
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{} // clear callback and arg references for the GC
	e.events = h[:n]
	if n > 0 {
		e.events.siftDown(0)
	}
	e.now = ev.at
	e.last = ev.at
	e.processed++
	if !ev.daemon {
		e.nonDaemon--
	}
	if ev.afn != nil {
		ev.afn(ev.arg)
	} else {
		ev.fn()
	}
	return true
}

// Run executes events until only daemon events (if any) remain.
func (e *Engine) Run() {
	for e.nonDaemon > 0 && e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
func (e *Engine) RunUntil(t Time) {
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// RunWhile executes events while cond() holds and events remain.
func (e *Engine) RunWhile(cond func() bool) {
	for cond() && e.Step() {
	}
}
