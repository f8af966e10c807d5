// Package pool provides the bounded, deterministic worker pool underneath
// the experiment sweeps (internal/experiments) and the public batch API
// (flashsim.RunBatch/RunGrid/RunScenarioBatch).
//
// Determinism contract: jobs are identified by index, results are collected
// by index, and when several jobs fail the lowest-index error wins. A
// caller therefore observes exactly the same values from a parallel run as
// from a sequential one; only wall-clock time differs.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(0), fn(1), ... fn(n-1) on up to parallel concurrent
// workers. parallel <= 0 selects runtime.NumCPU(). After any job returns an
// error no new jobs are dispatched (jobs already in flight finish), and the
// error of the lowest-index failed job is returned — the same error a
// sequential run would have stopped on. With parallel == 1 jobs run
// strictly in index order on the calling goroutine.
func ForEach(n, parallel int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if parallel <= 0 {
		parallel = runtime.NumCPU()
	}
	if parallel > n {
		parallel = n
	}
	if parallel == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64 // next index to dispatch
		stopped atomic.Bool  // an error has been observed

		mu       sync.Mutex
		firstErr error
		firstIdx int
	)
	record := func(i int, err error) {
		stopped.Store(true)
		mu.Lock()
		if firstErr == nil || i < firstIdx {
			firstErr, firstIdx = err, i
		}
		mu.Unlock()
	}

	var wg sync.WaitGroup
	wg.Add(parallel)
	for w := 0; w < parallel; w++ {
		go func() {
			defer wg.Done()
			for {
				if stopped.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					record(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Collect runs exec for every index on a ForEach pool and gathers the
// results into a slice ordered like the inputs. deliver, when non-nil, is
// invoked once per completed job in strict index order — job i is delivered
// only after jobs 0..i-1 — as soon as that prefix is complete, so callers
// get streaming progress that is identical under any scheduling. deliver
// runs under an internal lock: it must not call back into the pool.
//
// On error the slice built so far is discarded and the lowest-index error
// is returned, exactly as ForEach.
func Collect[R any](n, parallel int, exec func(i int) (R, error), deliver func(i int, r R)) ([]R, error) {
	results := make([]R, n)
	done := make([]bool, n)
	var (
		mu        sync.Mutex
		delivered int
	)
	err := ForEach(n, parallel, func(i int) error {
		r, err := exec(i)
		if err != nil {
			return err
		}
		mu.Lock()
		results[i], done[i] = r, true
		for delivered < n && done[delivered] {
			if deliver != nil {
				deliver(delivered, results[delivered])
			}
			delivered++
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}
