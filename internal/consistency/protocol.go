package consistency

// This file implements the callback-based consistency protocol extension.
// The paper deliberately measures only invalidation *counts* with instant
// global knowledge ("we only count invalidations; we do not model the
// overhead of cache consistency traffic", §3.8) and flags the real
// protocol as future work (§8). ModeCallback models that traffic: an
// AFS/Sprite-style ownership protocol where a writer must acquire
// exclusive ownership from the server — costing control messages to the
// server and callback round trips to every host holding a copy — and a
// reader of an exclusively-owned block forces a downgrade that flushes
// the owner's dirty data.

// Mode selects how consistency is enforced.
type Mode uint8

// Modes.
const (
	// ModeInstant is the paper's model: stale copies vanish instantly
	// and free of charge; only counts are kept.
	ModeInstant Mode = iota
	// ModeCallback charges ownership and callback message traffic.
	ModeCallback
)

// ProtocolPeer extends CacheHolder with the operations the callback
// protocol needs: delivering control messages over the host's link and
// flushing a dirty block to the filer.
type ProtocolPeer interface {
	CacheHolder
	// SendControl delivers one small control message between this host
	// and the server (either direction costs the same); done fires on
	// arrival.
	SendControl(done func())
	// FlushBlock writes the block to the filer if this host holds it
	// dirty; done fires when it is durable (immediately if clean or
	// absent).
	FlushBlock(key uint64, done func())
}

// noOwner marks a block as shared (or untracked).
const noOwner = -1

// SetMode selects the consistency model; must be called before traffic.
func (r *Registry) SetMode(m Mode) { r.mode = m }

// Mode returns the active consistency model.
func (r *Registry) Mode() Mode { return r.mode }

// ControlMessages returns the number of protocol control messages sent
// while collecting.
func (r *Registry) ControlMessages() uint64 { return r.controlMessages }

// OwnershipAcquires returns how many writes had to acquire ownership.
func (r *Registry) OwnershipAcquires() uint64 { return r.ownershipAcquires }

// Downgrades returns how many reads forced an exclusive owner to downgrade.
func (r *Registry) Downgrades() uint64 { return r.downgrades }

func (r *Registry) noteControl(n uint64) {
	if r.collect {
		r.controlMessages += n
	}
}

// AcquireWrite runs the consistency work for host's write of key and calls
// fn(arg) when the write may commit. Under ModeInstant this is BlockWritten
// plus an immediate continuation; under ModeCallback the writer pays for
// ownership acquisition unless it already owns the block exclusively. The
// continuation is a static function and its argument, so the per-block fast
// paths allocate nothing; only the message-passing slow path closes over it.
func (r *Registry) AcquireWrite(host int, key uint64, fn func(any), arg any) {
	if r.mode == ModeInstant {
		r.BlockWritten(host, key)
		fn(arg)
		return
	}
	if r.owner == nil {
		r.owner = make(map[uint64]int)
	}
	if owner, ok := r.owner[key]; ok && owner == host {
		// Exclusive ownership cached: silent write.
		r.BlockWritten(host, key) // other copies cannot exist; counts the write
		fn(arg)
		return
	}
	if r.collect {
		r.ownershipAcquires++
	}
	writer := r.peer(host)
	if writer == nil {
		// No link registered (tests with bare holders): fall back.
		r.BlockWritten(host, key)
		r.owner[key] = host
		fn(arg)
		return
	}
	// Request to server.
	r.noteControl(1)
	writer.SendControl(func() {
		// The server calls back every holder; they invalidate and ack.
		holders := r.holdersOf(host, key)
		n := len(holders)
		r.noteControl(uint64(2 * n)) // callback + ack per holder
		grant := func() {
			r.BlockWritten(host, key) // drops copies, counts invalidations
			r.owner[key] = host
			// Grant back to the writer.
			r.noteControl(1)
			writer.SendControl(func() { fn(arg) })
		}
		if n == 0 {
			grant()
			return
		}
		remaining := n
		for _, p := range holders {
			p.SendControl(func() { // callback out
				p.SendControl(func() { // ack back
					remaining--
					if remaining == 0 {
						grant()
					}
				})
			})
		}
	})
}

// AcquireRead runs the consistency work for host's read of key and calls
// fn(arg) when the read may proceed. Under ModeCallback a block exclusively
// owned by another host must be downgraded: the owner flushes its dirty
// copy to the filer and loses exclusivity.
func (r *Registry) AcquireRead(host int, key uint64, fn func(any), arg any) {
	if r.mode == ModeInstant || r.owner == nil {
		fn(arg)
		return
	}
	owner, ok := r.owner[key]
	if !ok || owner == noOwner || owner == host {
		fn(arg)
		return
	}
	if r.collect {
		r.downgrades++
	}
	reader := r.peer(host)
	ownerPeer := r.peer(owner)
	if reader == nil || ownerPeer == nil {
		delete(r.owner, key)
		fn(arg)
		return
	}
	// Reader asks the server; server calls back the owner, who flushes
	// dirty data and acks; server replies to the reader.
	r.noteControl(4)
	reader.SendControl(func() {
		ownerPeer.SendControl(func() {
			ownerPeer.FlushBlock(key, func() {
				ownerPeer.SendControl(func() {
					r.owner[key] = noOwner
					reader.SendControl(func() { fn(arg) })
				})
			})
		})
	})
}

// peer returns the ProtocolPeer for a host ID, or nil.
func (r *Registry) peer(host int) ProtocolPeer {
	for _, h := range r.holders {
		if h.HostID() == host {
			p, ok := h.(ProtocolPeer)
			if !ok {
				return nil
			}
			return p
		}
	}
	return nil
}

// holdersOf returns the protocol peers (other than writer) currently
// holding a copy of key.
func (r *Registry) holdersOf(writer int, key uint64) []ProtocolPeer {
	var out []ProtocolPeer
	for _, h := range r.holders {
		if h.HostID() == writer {
			continue
		}
		p, ok := h.(ProtocolPeer)
		if !ok || !p.Holds(key) {
			continue
		}
		out = append(out, p)
	}
	return out
}
