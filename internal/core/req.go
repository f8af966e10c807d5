package core

import (
	"repro/internal/cache"
	"repro/internal/sim"
)

// This file holds the pooled request-record machinery that keeps the
// steady-state block-request path allocation-free. Before it existed,
// every asynchronous step in core captured its state in a fresh closure
// (~49 closure sites in host.go alone, one or more per simulated block
// access); now each step is a package-level func(any) and its state rides
// in a hostReq record recycled through a host-local free list.
//
// Correctness rule: cache entries are themselves pooled (see
// cache.entryPool), so a retained *cache.Entry does not prove identity
// across an asynchronous boundary. Whenever a record carries an entry past
// one, it carries (key, entry, Gen()) captured at a point of known
// validity, and the resuming stage re-checks
//
//	h.tiers[t].Peek(key) == entry && entry.Gen() == gen
//
// (Host.live, with t the tier the record names) before mutating the
// entry. Event-generating work (device writes, filer
// round trips) is performed unconditionally, exactly as the closure-based
// code did for entries that were evicted in flight — the golden
// determinism tests hold the refactor to byte-identical reports.

// cont is a pre-bound continuation: a static callback plus its state.
// Passing one copies two words; running one calls fn(arg). The zero cont
// is a no-op, used where the closure-based code passed a nil callback.
type cont struct {
	fn  func(any)
	arg any
}

func (c cont) run() {
	if c.fn != nil {
		c.fn(c.arg)
	}
}

// callFunc adapts a func() completion (a protocol hop's, see sendControl)
// to the cont shape. Wrapping a func value in an interface does not
// allocate.
func callFunc(a any) { a.(func())() }

// joinDone signals one completion of the *sim.Join riding in the arg
// slot, so a fan-out passes the same join to every completion without
// building the method value join.Done once per block.
func joinDone(a any) { a.(*sim.Join).Done() }

// funcCont wraps a func() as a cont.
func funcCont(done func()) cont { return cont{fn: callFunc, arg: done} }

// entryCont is a continuation receiving a cache entry (ensureFlashEntry's
// callback shape).
type entryCont struct {
	fn  func(any, *cache.Entry)
	arg any
}

// hostReq carries one asynchronous step's state between a schedule point
// and its static resumption function. Records are owned by a single chain
// at a time: the stage that consumes a record's fields releases it (putReq)
// before — never after — running any continuation that might reuse it.
type hostReq struct {
	h   *Host
	key cache.Key
	ln  lane
	c   cont
	ec  entryCont

	// Entry identity captured at a validity point; see file comment.
	e     *cache.Entry
	gen   uint64
	epoch uint64
	t     tier

	// Read/Write bookkeeping.
	start   sim.Time
	collect bool

	// Observability (internal/obs): the sampled request's trace sequence
	// (0 = untraced, disabling every stage's recording with one integer
	// compare) and the simulated entry time of the stage in flight.
	trSeq uint64
	tMark sim.Time

	// next links the free list; while a fetch is pending it links the
	// requests that joined it, newest first (Host.fetchFromFiler), and
	// pend links the host's pending fetches.
	next *hostReq
	pend *hostReq
}

// reqSlab is the number of records a request arena carves per
// allocation.
const reqSlab = 256

// reqArena is an engine's shared scratch: it carves hostReq records and
// the trace driver's per-thread records in slabs and lends every host on
// the engine one flush scratch buffer. Every host of an engine shares its
// arena — NewHosts builds one per engine — and an engine runs on one
// goroutine, so nothing here is locked.
//
// A carved request record belongs to one host for life (r.h is set at
// carving) and recycles through that host's free list, so the arena only
// grows with the engine's total in-flight high-water mark — never a slab
// per host, which on a 1024-host fleet would strand most of each slab.
type reqArena struct {
	slab []hostReq // the uncarved tail of the current record slab

	// threads is the uncarved tail of the current thread-record slab, of
	// threadSlab records (driver.go).
	threads    []threadRec
	threadSlab int

	// dirty is the flush scratch (dirtyOf). NewHosts sizes it to the
	// largest tier capacity among the engine's hosts, which bounds every
	// dirty list, so it never grows.
	dirty []*cache.Entry
}

func (a *reqArena) carve(h *Host) *hostReq {
	if len(a.slab) == 0 {
		a.slab = make([]hostReq, reqSlab)
	}
	r := &a.slab[0]
	a.slab = a.slab[1:]
	r.h = h
	return r
}

// dirtyOf lists c's dirty entries, oldest first, in the arena's flush
// scratch. The list is valid until the next dirtyOf on the engine; the
// flush, flush-tier and recovery scans that use it only start
// asynchronous writebacks while they walk it.
func (a *reqArena) dirtyOf(c tierCache) []*cache.Entry {
	a.dirty = c.AppendDirty(a.dirty[:0])
	return a.dirty
}

// getReq takes a record from the host's free list, carving from the arena
// only when the list is empty (i.e. only to raise the high-water mark of
// in-flight steps; steady state recycles).
func (h *Host) getReq() *hostReq {
	r := h.freeReq
	if r == nil {
		return h.reqs.carve(h)
	}
	h.freeReq, r.next = r.next, nil
	return r
}

// putReq resets and recycles a record. Callers must copy out any fields
// they still need first.
func (h *Host) putReq(r *hostReq) {
	*r = hostReq{h: r.h, next: h.freeReq}
	h.freeReq = r
}
