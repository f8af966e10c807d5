package serve

import (
	"slices"
	"sync"
)

// chunkSize is the size of the chunks the hub copies published lines
// into. A line longer than a chunk gets a chunk of its own.
const chunkSize = 64 << 10

// streamLine is one published stream record: its envelope kind (sample,
// phase, event, end, ...) and the complete JSON envelope with its
// trailing '\n'. The kind rides along so the SSE framing can name its
// events without re-parsing. data is a view into one of the hub's chunks
// and is never written again.
type streamLine struct {
	kind string
	data []byte
}

// hub is a per-run append-only line log: the run goroutine publishes
// lines, any number of stream subscribers read them. The full history is
// kept for the run's lifetime so a subscriber attaching late — or
// reading slowly — replays every line from the beginning and never
// misses or drops one; runs are bounded, so the log is too. Lines are
// copied into shared fixed-size chunks, so the history costs about its
// own size and a subscriber costs only its signal channel.
type hub struct {
	mu     sync.Mutex
	chunk  []byte // the chunk being filled; its length is the used part
	lines  []streamLine
	closed bool
	// subs holds one wake-up signal of capacity 1 per registered reader.
	// publish and close never block on a slow reader, and a reader that
	// misses several wake-ups still finds every line on its next call to
	// next.
	subs []chan struct{}
}

// publish copies data and a trailing '\n' into the log and wakes the
// subscribers. The caller may reuse data once publish returns.
func (h *hub) publish(kind string, data []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	n := len(data) + 1
	if cap(h.chunk)-len(h.chunk) < n {
		h.chunk = make([]byte, 0, max(n, chunkSize))
	}
	start := len(h.chunk)
	h.chunk = append(append(h.chunk, data...), '\n')
	end := len(h.chunk)
	h.lines = append(h.lines, streamLine{kind: kind, data: h.chunk[start:end:end]})
	h.wake()
}

// close marks the stream complete and wakes everyone; further publishes
// are dropped.
func (h *hub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	h.wake()
}

// wake leaves a pending wake-up on every registered reader's signal.
// The sends never block, so it is safe under h.mu. Callers hold h.mu.
func (h *hub) wake() {
	for _, sig := range h.subs {
		select {
		case sig <- struct{}{}:
		default:
		}
	}
}

// subscribe registers a reader and returns its signal. Every publish or
// close after subscribe returns leaves a wake-up on the signal, so a
// reader that waits on it after a call to next misses no line. The
// reader must call unsubscribe when it leaves.
func (h *hub) subscribe() <-chan struct{} {
	sig := make(chan struct{}, 1)
	h.mu.Lock()
	h.subs = append(h.subs, sig)
	h.mu.Unlock()
	return sig
}

// unsubscribe drops a reader's registration.
func (h *hub) unsubscribe(sig <-chan struct{}) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.subs = slices.DeleteFunc(h.subs, func(o chan struct{}) bool { return o == sig })
}

// next returns the lines at and after cursor, and whether the stream is
// complete with no line left past them.
func (h *hub) next(cursor int) (lines []streamLine, done bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if cursor < len(h.lines) {
		lines = h.lines[cursor:]
	}
	return lines, h.closed
}
