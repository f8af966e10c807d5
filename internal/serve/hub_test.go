package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/flashsim"
)

// subscribers returns how many readers the hub has registered.
func (h *hub) subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// drain reads h from the start until it closes, the way handleStream
// does, and returns every line it saw. pause, when set, runs before each
// wait, so a test can make the reader slow.
func drain(h *hub, pause func()) []streamLine {
	sig := h.subscribe()
	defer h.unsubscribe(sig)
	var out []streamLine
	for {
		lines, done := h.next(len(out))
		out = append(out, lines...)
		if done {
			return out
		}
		if pause != nil {
			pause()
		}
		<-sig
	}
}

// TestHubChunkBoundaries publishes lines of random length, one of them
// longer than a chunk and one exactly filling one, from a buffer the
// publisher overwrites after every publish. A slow reader attached from
// the start and a reader attaching after close must both read exactly
// the published kinds and bytes.
func TestHubChunkBoundaries(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	var want []streamLine
	for i := 0; i < 400; i++ {
		n := 1 + rnd.Intn(2000)
		switch i {
		case 150:
			n = chunkSize + 100
		case 250:
			n = chunkSize - 1 // with its '\n', exactly one chunk
		}
		data := make([]byte, n)
		for j := range data {
			data[j] = 'a' + byte(rnd.Intn(26))
		}
		want = append(want, streamLine{kind: fmt.Sprintf("k%d", i%3), data: data})
	}

	h := &hub{}
	slow := make(chan []streamLine)
	go func() {
		i := 0
		slow <- drain(h, func() {
			if i++; i%7 == 0 {
				runtime.Gosched()
			}
		})
	}()
	var buf []byte
	for _, ln := range want {
		buf = append(buf[:0], ln.data...)
		h.publish(ln.kind, buf)
		for j := range buf {
			buf[j] = '#' // the hub must have copied the line
		}
	}
	h.close()
	h.publish("late", []byte("dropped after close"))

	check := func(who string, got []streamLine) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s read %d lines, want %d", who, len(got), len(want))
		}
		for i, ln := range got {
			if ln.kind != want[i].kind || !bytes.Equal(ln.data, append(want[i].data, '\n')) {
				t.Fatalf("%s line %d: kind %q, %d bytes; want kind %q, %d bytes",
					who, i, ln.kind, len(ln.data), want[i].kind, len(want[i].data)+1)
			}
		}
	}
	check("slow reader", <-slow)
	check("reader attaching after close", drain(h, nil))
	if n := h.subscribers(); n != 0 {
		t.Fatalf("%d subscribers still registered", n)
	}
}

// TestStreamAbandonedSubscribers reconnects to a pending run's stream
// 1,000 times, each request canceled while its handler waits for a
// line. Every handler must drop its registration when it leaves.
func TestStreamAbandonedSubscribers(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1})
	block := make(chan struct{})
	release := make(chan struct{})
	if err := s.queue.Submit(func() { close(block); <-release }); err != nil {
		t.Fatal(err)
	}
	<-block
	defer close(release)
	id := createRun(t, ts, tinyScenarioBody)
	run, _ := s.reg.get(id)

	for i := 0; i < 1000; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		req := httptest.NewRequest(http.MethodGet, "/v1/runs/"+id+"/stream", nil).WithContext(ctx)
		returned := make(chan struct{})
		go func() {
			defer close(returned)
			s.Handler().ServeHTTP(httptest.NewRecorder(), req)
		}()
		for run.hub.subscribers() == 0 {
			runtime.Gosched()
		}
		cancel()
		<-returned
	}
	if n := run.hub.subscribers(); n != 0 {
		t.Fatalf("%d subscribers registered after 1000 abandoned streams", n)
	}
}

// sampleRow is a telemetry row shaped like a live one.
var sampleRow = []float64{138.25, 2411.0625, 0.8125, 0.4375, 4096, 12, 311}

// TestStreamAllocations locks the stream's per-line cost: encoding a
// sample line into a warm buffer, writing a stored line in NDJSON or SSE
// framing, and waking a subscriber allocate nothing. Publishing 10,000
// lines to a subscriber that drains each one before the next is
// published allocates only the log's chunks and the growth of its line
// index.
func TestStreamAllocations(t *testing.T) {
	cols := flashsim.TelemetryColumns()
	line := appendSampleLine(nil, cols, 1.25, sampleRow)
	if a := testing.AllocsPerRun(1000, func() {
		line = appendSampleLine(line[:0], cols, 1.25, sampleRow)
	}); a != 0 {
		t.Errorf("encoding a sample line: %v allocations, want 0", a)
	}
	ln := streamLine{kind: "sample", data: append(line, '\n')}
	for _, sse := range []bool{false, true} {
		if a := testing.AllocsPerRun(1000, func() {
			if err := writeLine(io.Discard, ln, sse); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("writing a line (sse=%v): %v allocations, want 0", sse, a)
		}
	}

	const n = 10000
	perChunk := chunkSize / (len(line) + 1)
	chunks := (n + perChunk - 1) / perChunk
	var index []streamLine
	growth := 0
	for i := 0; i < n; i++ {
		if len(index) == cap(index) {
			growth++
		}
		index = append(index, streamLine{})
	}

	// Blocking on a channel takes a waiter record from a per-processor
	// runtime cache, which allocates when empty. A collection empties
	// the caches, and a goroutine moving between processors moves records
	// from one cache to another; with the collector off and one
	// processor, a warm-up round fills the cache for the measured one.
	//
	// A collection also wakes runtime goroutines that allocate when they
	// run, such as the unique package's map cleanup. Collecting on the one
	// processor and then yielding runs them to their next wait before the
	// warm-up. Left queued, one can run inside the measured window: the
	// lockstep pair hand the processor back and forth within one time
	// slice, which starves every other queued goroutine until the
	// scheduler preempts the pair.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.Gosched()
	lockstep(t, &hub{}, 1000, line)
	if got, limit := lockstep(t, &hub{}, n, line), uint64(chunks+growth); got > limit {
		t.Errorf("publishing %d lines of %d B: %d allocations, want at most %d (%d chunks, %d index growths)",
			n, len(line)+1, got, limit, chunks, growth)
	}
}

// lockstep publishes n copies of line to one subscriber that drains
// each before the next is published, and returns the heap allocations
// made from the first publish to the subscriber's last read.
func lockstep(t *testing.T, h *hub, n int, line []byte) uint64 {
	t.Helper()
	sig := h.subscribe()
	caughtUp := make(chan struct{})
	done := make(chan int)
	go func() {
		cursor := 0
		for {
			lines, closed := h.next(cursor)
			cursor += len(lines)
			if closed {
				done <- cursor
				return
			}
			caughtUp <- struct{}{}
			<-sig
		}
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		<-caughtUp
		h.publish("sample", line)
	}
	<-caughtUp
	h.close()
	read := <-done
	runtime.ReadMemStats(&after)
	if read != n {
		t.Fatalf("subscriber read %d lines, want %d", read, n)
	}
	return after.Mallocs - before.Mallocs
}

// BenchmarkHubFanout publishes sample lines to 1, 4 and 16 subscribers,
// each writing every line in NDJSON framing to a discard writer. A fresh
// hub starts every 3,200 lines, about one crash-recovery run's stream at
// a 0.25 ms sampling period, so the subscribers' set-up is part of the
// cost. One op is one published line; allocs/line counts the
// subscribers' allocations too.
func BenchmarkHubFanout(b *testing.B) {
	const linesPerRun = 3200
	line := appendSampleLine(nil, flashsim.TelemetryColumns(), 1.25, sampleRow)
	for _, subs := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for published := 0; published < b.N; {
				h := &hub{}
				var wg sync.WaitGroup
				for s := 0; s < subs; s++ {
					sig := h.subscribe()
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer h.unsubscribe(sig)
						cursor := 0
						for {
							lines, done := h.next(cursor)
							for _, ln := range lines {
								if err := writeLine(io.Discard, ln, false); err != nil {
									b.Error(err)
									return
								}
							}
							cursor += len(lines)
							if done {
								return
							}
							<-sig
						}
					}()
				}
				for i := 0; i < linesPerRun && published < b.N; i++ {
					h.publish("sample", line)
					published++
				}
				h.close()
				wg.Wait()
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/line")
		})
	}
}
