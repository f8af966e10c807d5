package sim

// Ticker invokes a callback at a fixed simulated period, modeling daemon
// threads such as the periodic writeback syncer. Ticks are daemon events:
// they fire whenever foreground work advances the clock past them, but an
// armed ticker does not by itself keep Engine.Run alive. Owners hold
// tickers by value and arm them in place with Start.
type Ticker struct {
	eng     *Engine
	period  Time
	fn      func(any)
	arg     any
	stopped bool
}

// Start arms the ticker to run fn(arg) every period, first firing one
// period from now. fn is a static func(any) and arg its state, as in
// every other completion form, so neither starting nor ticking
// allocates. It panics if period <= 0.
func (t *Ticker) Start(eng *Engine, period Time, fn func(any), arg any) {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	*t = Ticker{eng: eng, period: period, fn: fn, arg: arg}
	t.arm()
}

// tickerFire is the shared tick callback: the ticker itself rides in the
// event's argument slot, so rearming never allocates.
func tickerFire(a any) {
	t := a.(*Ticker)
	if t.stopped {
		return
	}
	t.fn(t.arg)
	if !t.stopped {
		t.arm()
	}
}

func (t *Ticker) arm() {
	t.eng.scheduleDaemon2(t.period, tickerFire, t)
}

// Stop cancels future firings. Safe to call multiple times.
func (t *Ticker) Stop() { t.stopped = true }

// Join calls done after n completions have been signalled via its Done
// method. It is the simulation analogue of sync.WaitGroup for fan-out
// operations such as flushing a batch of dirty blocks.
type Join struct {
	remaining int
	done      func()
}

// NewJoin returns a Join expecting n completions. If n == 0, done runs
// immediately.
func NewJoin(n int, done func()) *Join {
	j := &Join{remaining: n, done: done}
	if n == 0 && done != nil {
		done()
	}
	return j
}

// Done signals one completion.
func (j *Join) Done() {
	if j.remaining <= 0 {
		panic("sim: Join.Done called more times than expected")
	}
	j.remaining--
	if j.remaining == 0 && j.done != nil {
		j.done()
	}
}
