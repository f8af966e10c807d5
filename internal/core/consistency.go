package core

// This file implements the paper's cache-consistency measurement (§3.8) for
// hosts sharing one engine: "The simulator invalidates stale copies of
// blocks instantly (using global knowledge) when a new version is first
// written into a cache. This exposes the overhead caused when these blocks
// must be fetched again later. However, we only count invalidations; we do
// not model the overhead of cache consistency traffic."
//
// With protocol set, the registry instead models that traffic, the paper's
// future work (§8): an AFS/Sprite-style ownership protocol where a writer
// must acquire exclusive ownership from the server — costing control
// messages to the server and callback round trips to every host holding a
// copy — and a reader of an exclusively-owned block forces a downgrade that
// flushes the owner's dirty data. The sharded cluster runs the same two
// models behind the same port (clusterSink and clusterProtoPort).

// ConsistencyStats is the invalidation accounting of a run, kept by every
// consistency implementation alike. The protocol fields are zero unless the
// callback protocol was modeled.
type ConsistencyStats struct {
	BlocksWritten      uint64 // application block writes observed
	WritesInvalidating uint64 // writes that invalidated >= 1 remote copy
	Invalidations      uint64 // remote copies dropped

	// Callback-protocol traffic.
	ControlMessages   uint64
	OwnershipAcquires uint64
	Downgrades        uint64
}

// InvalidationFraction returns writes-requiring-invalidation over all
// block writes, the paper's Figure 11/12 metric.
func (c ConsistencyStats) InvalidationFraction() float64 {
	if c.BlocksWritten == 0 {
		return 0
	}
	return float64(c.WritesInvalidating) / float64(c.BlocksWritten)
}

// registry is consistency with instant global knowledge over hosts that
// share one engine. Every count is gated by the acting host's collect
// flag; the sequential driver flips all hosts at once.
type registry struct {
	hosts    []*Host // scanned in order, which is host-ID order
	protocol bool
	owner    map[uint64]*Host // protocol: a block's exclusive owner, if any
	st       ConsistencyStats
}

// registryPort is one host's ConsistencyPort into the registry.
type registryPort struct {
	r *registry
	h *Host
}

// TrackConsistency models consistency across hosts sharing one engine,
// given in host-ID order: the paper's instant invalidation, or with
// protocol the callback ownership protocol. It sets every host's
// consistency port and returns the accounting, final once the run drains.
func TrackConsistency(hosts []*Host, protocol bool) *ConsistencyStats {
	r := &registry{hosts: hosts, protocol: protocol}
	if protocol {
		r.owner = make(map[uint64]*Host)
	}
	ports := make([]registryPort, len(hosts))
	for i, h := range hosts {
		ports[i] = registryPort{r: r, h: h}
		h.SetConsistencyPort(&ports[i])
	}
	return &r.st
}

// blockWritten notes w's commit of a new version of key: every other
// host's copy is dropped instantly.
func (r *registry) blockWritten(w *Host, key uint64) {
	if w.collect {
		r.st.BlocksWritten++
	}
	dropped := false
	for _, h := range r.hosts {
		if h == w {
			continue
		}
		if h.invalidate(key) {
			dropped = true
			if w.collect {
				r.st.Invalidations++
			}
		}
	}
	if dropped && w.collect {
		r.st.WritesInvalidating++
	}
}

func (r *registry) noteControl(h *Host, n uint64) {
	if h.collect {
		r.st.ControlMessages += n
	}
}

// AcquireWrite implements ConsistencyPort. In instant mode the write
// invalidates every remote copy and proceeds; under the protocol the
// writer pays for ownership acquisition unless it already owns the block
// exclusively. The per-block fast paths allocate nothing; only the
// message-passing slow path closes over the continuation.
func (p *registryPort) AcquireWrite(key uint64, fn func(any), arg any) {
	r, w := p.r, p.h
	if !r.protocol || r.owner[key] == w {
		// Under exclusive ownership no other copy can exist: the write
		// is silent, but still counted.
		r.blockWritten(w, key)
		fn(arg)
		return
	}
	if w.collect {
		r.st.OwnershipAcquires++
	}
	// Request to server.
	r.noteControl(w, 1)
	w.sendControl(func() {
		// The server calls back every holder; they invalidate and ack.
		holders := r.holdersOf(w, key)
		n := len(holders)
		r.noteControl(w, uint64(2*n)) // callback + ack per holder
		grant := func() {
			r.blockWritten(w, key) // drops copies, counts invalidations
			r.owner[key] = w
			// Grant back to the writer.
			r.noteControl(w, 1)
			w.sendControl(func() { fn(arg) })
		}
		if n == 0 {
			grant()
			return
		}
		remaining := n
		for _, h := range holders {
			h.sendControl(func() { // callback out
				h.sendControl(func() { // ack back
					remaining--
					if remaining == 0 {
						grant()
					}
				})
			})
		}
	})
}

// AcquireRead implements ConsistencyPort: a block exclusively owned by
// another host is downgraded first — the owner flushes its dirty copy to
// the filer and loses exclusivity. Instant mode has no owners.
func (p *registryPort) AcquireRead(key uint64, fn func(any), arg any) {
	r, rd := p.r, p.h
	o := r.owner[key]
	if o == nil || o == rd {
		fn(arg)
		return
	}
	if rd.collect {
		r.st.Downgrades++
	}
	// Reader asks the server; server calls back the owner, who flushes
	// dirty data and acks; server replies to the reader.
	r.noteControl(rd, 4)
	rd.sendControl(func() {
		o.sendControl(func() {
			o.flushBlock(key, func() {
				o.sendControl(func() {
					delete(r.owner, key)
					rd.sendControl(func() { fn(arg) })
				})
			})
		})
	})
}

// holdersOf returns the hosts other than w currently holding a copy of key.
func (r *registry) holdersOf(w *Host, key uint64) []*Host {
	var out []*Host
	for _, h := range r.hosts {
		if h != w && h.holds(key) {
			out = append(out, h)
		}
	}
	return out
}
