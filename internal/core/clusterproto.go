package core

import "repro/internal/sim"

// This file implements the callback consistency protocol on the sharded
// cluster: the same AFS/Sprite-style ownership protocol as the sequential
// registry in consistency.go (a writer acquires exclusive ownership from the
// server, paying control messages and callback round trips to every holder;
// a reader of an exclusively-owned block forces a downgrade that flushes
// the owner's dirty data), rebuilt so every cross-host interaction crosses
// the epoch barrier instead of touching remote engines directly.
//
// The protocol decomposes into message hops, each of which is either
// host-local (a control-packet transit on the host's own network segment,
// executed by the host's shard) or server-side (ownership bookkeeping,
// holder lookup, grant decisions, executed by the barrier coordinator
// between epochs). A hop from a host to the server ends by appending a
// protoMsg — keyed (arrivalTime, host, seq) like every other exchange
// message — to the shard outbox; the coordinator processes the batch in
// globally sorted order at the next barrier, so the ownership state
// machine sees the identical message sequence at every shard count. A hop
// from the server to a host is scheduled onto the target shard at
// (messageTime + lookahead): the lookahead bound guarantees the target
// time is in the shard's future, and charging it models the server's
// turnaround as one barrier interval — the protocol analogue of the
// deferred-invalidation relaxation documented in cluster.go.
//
// Two relaxations relative to the sequential registry follow from the
// decomposition, both deterministic and shard-count invariant:
//
//   - Each server-mediated hop costs one lookahead of extra latency (the
//     sequential registry's server turns around instantly).
//   - Holders drop their copies when the callback packet arrives rather
//     than all at once at grant time, so a stale copy may serve hits for
//     up to one barrier interval longer than sequentially.
//
// Ownership reads during an epoch (the silent-write fast path and the
// reader's owned-elsewhere check) consult the coordinator's owner map,
// which is mutated only between epochs: every shard observes the map as of
// the last barrier, a state that is itself shard-count invariant.

// protoKind tags a protocol exchange message.
type protoKind uint8

const (
	// protoWriteAcquire: a writer's ownership request arrived at the
	// server.
	protoWriteAcquire protoKind = iota
	// protoWriteAck: a holder's invalidation ack arrived at the server.
	protoWriteAck
	// protoReadAcquire: a reader's downgrade request arrived at the
	// server.
	protoReadAcquire
	// protoReadAck: the owner's flush-and-downgrade ack arrived at the
	// server.
	protoReadAck
)

// protoMsg is one host→server protocol message crossing a shard boundary;
// acquire kinds carry the parked request continuation, ack kinds the
// pending-request ID.
// Its arrival time is the control transit's end at the server.
type protoMsg struct {
	arrival
	kind    protoKind
	key     uint64
	req     uint64 // pending-request ID (ack kinds)
	collect bool   // acquirer was collecting statistics at request time
	dropped bool   // protoWriteAck: the holder dropped a resident copy
	fn      func(any)
	arg     any
}

// noProtoOwner marks a block as shared (or untracked).
const noProtoOwner = int32(-1)

// clusterProtoPort is one host's entry into the sharded protocol. The
// acquire methods run on the shard's goroutine during an epoch; the
// counters are folded into ConsistencyStats after the run.
type clusterProtoPort struct {
	sh   *clusterShard
	h    *Host
	host int32
	seq  uint64
	co   *protoCoordinator

	// Request-side accounting, gated by the host's own collect flag at
	// request time, as in the sequential registry.
	silentWrites      uint64 // exclusively-owned writes committed without traffic
	controlMessages   uint64
	ownershipAcquires uint64
	downgrades        uint64
}

// send records a control-packet transit on the host's link ending in a
// protocol message at the server.
func (p *clusterProtoPort) send(m protoMsg) {
	p.h.sendControl(func() {
		p.seq++
		m.arrival = arrival{p.sh.eng.Now(), p.host, p.seq}
		p.sh.outProto = append(p.sh.outProto, m)
	})
}

// AcquireWrite implements ConsistencyPort: an exclusively-owned block
// commits silently; anything else requests ownership from the server.
func (p *clusterProtoPort) AcquireWrite(key uint64, fn func(any), arg any) {
	if p.co.ownerOf(key) == p.host {
		if p.h.collect {
			p.silentWrites++
		}
		fn(arg)
		return
	}
	if p.h.collect {
		p.ownershipAcquires++
		p.controlMessages++ // the request to the server
	}
	p.send(protoMsg{kind: protoWriteAcquire, key: key, collect: p.h.collect, fn: fn, arg: arg})
}

// AcquireRead implements ConsistencyPort: a block exclusively owned by
// another host must be downgraded before the read proceeds.
func (p *clusterProtoPort) AcquireRead(key uint64, fn func(any), arg any) {
	o := p.co.ownerOf(key)
	if o == noProtoOwner || o == p.host {
		fn(arg)
		return
	}
	if p.h.collect {
		p.downgrades++
		// Reader→server, server→owner, owner→server, server→reader: the
		// four control hops of the downgrade, as in the sequential
		// registry.
		p.controlMessages += 4
	}
	p.send(protoMsg{kind: protoReadAcquire, key: key, collect: p.h.collect, fn: fn, arg: arg})
}

// fold adds the port's request-side counters into the aggregate.
func (p *clusterProtoPort) fold(cons *ConsistencyStats) {
	cons.BlocksWritten += p.silentWrites
	cons.ControlMessages += p.controlMessages
	cons.OwnershipAcquires += p.ownershipAcquires
	cons.Downgrades += p.downgrades
}

// protoReq is one in-flight server-side request awaiting acks.
type protoReq struct {
	key       uint64
	host      int32 // acquirer
	remaining int
	collect   bool
	dropped   bool
	fn        func(any)
	arg       any
}

// protoCoordinator is the server side of the sharded protocol: the
// ownership map plus the pending-request table. It runs only between
// epochs (on the coordinator goroutine); the owner map is additionally
// read — never written — by the shards during epochs.
type protoCoordinator struct {
	c      *Cluster
	owner  map[uint64]int32
	reqs   map[uint64]*protoReq
	nextID uint64

	// Server-side accounting, gated by the acquirer's collect flag
	// carried in the message.
	controlMessages    uint64
	blocksWritten      uint64
	writesInvalidating uint64
	invalidations      uint64

	holderScratch []*Host
}

func newProtoCoordinator(c *Cluster) *protoCoordinator {
	return &protoCoordinator{
		c:     c,
		owner: make(map[uint64]int32),
		reqs:  make(map[uint64]*protoReq),
	}
}

// ownerOf returns the exclusive owner of key, or noProtoOwner.
func (pc *protoCoordinator) ownerOf(key uint64) int32 {
	if o, ok := pc.owner[key]; ok {
		return o
	}
	return noProtoOwner
}

// pending returns the number of requests awaiting acks.
func (pc *protoCoordinator) pending() int { return len(pc.reqs) }

// fold adds the coordinator's counters into the aggregate.
func (pc *protoCoordinator) fold(cons *ConsistencyStats) {
	cons.BlocksWritten += pc.blocksWritten
	cons.WritesInvalidating += pc.writesInvalidating
	cons.Invalidations += pc.invalidations
	cons.ControlMessages += pc.controlMessages
}

// serviceProtocol processes the barrier's sorted protocol batch. It is a
// no-op outside protocol runs.
func (c *Cluster) serviceProtocol() {
	if c.proto == nil {
		return
	}
	for i := range c.protoBatch {
		m := &c.protoBatch[i]
		switch m.kind {
		case protoWriteAcquire:
			c.proto.writeAcquire(m)
		case protoWriteAck:
			c.proto.writeAck(m)
		case protoReadAcquire:
			c.proto.readAcquire(m)
		case protoReadAck:
			c.proto.readAck(m)
		}
	}
}

// park stores a pending request and returns its ID.
func (pc *protoCoordinator) park(m *protoMsg, remaining int) uint64 {
	pc.nextID++
	pc.reqs[pc.nextID] = &protoReq{
		key:       m.key,
		host:      m.host,
		remaining: remaining,
		collect:   m.collect,
		fn:        m.fn,
		arg:       m.arg,
	}
	return pc.nextID
}

// writeAcquire handles a writer's ownership request: the server calls back
// every current holder; the grant waits for their acks.
func (pc *protoCoordinator) writeAcquire(m *protoMsg) {
	if m.collect {
		pc.blocksWritten++
	}
	holders := pc.holderScratch[:0]
	for _, h := range pc.c.hosts {
		if int32(h.ID()) != m.host && h.holds(m.key) {
			holders = append(holders, h)
		}
	}
	pc.holderScratch = holders[:0]
	if m.collect {
		pc.controlMessages += uint64(2 * len(holders)) // callback + ack per holder
	}
	if len(holders) == 0 {
		pc.grantWrite(m.at, m.host, m.key, false, m.collect, m.fn, m.arg)
		return
	}
	id := pc.park(m, len(holders))
	for _, hh := range holders {
		pc.deliverCallback(m.at, hh, m.key, id)
	}
}

// deliverCallback schedules the server's invalidation callback on the
// holder's shard: one control transit in, the drop, one control transit
// back, then the ack enters the exchange.
func (pc *protoCoordinator) deliverCallback(at sim.Time, holder *Host, key uint64, id uint64) {
	c := pc.c
	port := &c.protoPorts[holder.ID()]
	c.hostShard[holder.ID()].eng.At(at+c.lookahead, func() {
		holder.sendControl(func() { // callback packet reaches the holder
			dropped := holder.invalidate(key)
			holder.sendControl(func() { // ack packet returns
				port.seq++
				port.sh.outProto = append(port.sh.outProto, protoMsg{
					arrival: arrival{port.sh.eng.Now(), port.host, port.seq},
					kind:    protoWriteAck, req: id, dropped: dropped,
				})
			})
		})
	})
}

// writeAck consumes one holder's ack; the last ack triggers the grant.
func (pc *protoCoordinator) writeAck(m *protoMsg) {
	req := pc.reqs[m.req]
	if req == nil {
		panic("core: protocol ack for unknown request")
	}
	req.remaining--
	if m.dropped {
		req.dropped = true
		if req.collect {
			pc.invalidations++
		}
	}
	if req.remaining > 0 {
		return
	}
	delete(pc.reqs, m.req)
	pc.grantWrite(m.at, req.host, req.key, req.dropped, req.collect, req.fn, req.arg)
}

// grantWrite records ownership and delivers the grant to the writer: a
// server turnaround plus one control transit on the writer's link, after
// which the parked write proceeds.
func (pc *protoCoordinator) grantWrite(at sim.Time, writer int32, key uint64,
	dropped, collect bool, fn func(any), arg any) {
	pc.owner[key] = writer
	if collect {
		pc.controlMessages++ // the grant message
		if dropped {
			pc.writesInvalidating++
		}
	}
	c := pc.c
	w := c.hosts[writer]
	c.hostShard[writer].eng.At(at+c.lookahead, func() {
		w.sendControl(func() { fn(arg) })
	})
}

// readAcquire handles a reader's downgrade request. Ownership may have
// been released while the request was in flight; then the reader gets an
// immediate (transit-priced) reply.
func (pc *protoCoordinator) readAcquire(m *protoMsg) {
	o := pc.ownerOf(m.key)
	if o == noProtoOwner || o == m.host {
		pc.replyRead(m.at, m.host, m.fn, m.arg)
		return
	}
	id := pc.park(m, 1)
	c := pc.c
	owner := c.hosts[o]
	port := &c.protoPorts[o]
	c.hostShard[o].eng.At(m.at+c.lookahead, func() {
		owner.sendControl(func() { // server's callback reaches the owner
			owner.flushBlock(m.key, func() { // dirty data becomes durable
				owner.sendControl(func() { // ack packet returns
					port.seq++
					port.sh.outProto = append(port.sh.outProto, protoMsg{
						arrival: arrival{port.sh.eng.Now(), port.host, port.seq},
						kind:    protoReadAck, req: id,
					})
				})
			})
		})
	})
}

// readAck completes a downgrade: ownership becomes shared and the reader's
// parked request resumes.
func (pc *protoCoordinator) readAck(m *protoMsg) {
	req := pc.reqs[m.req]
	if req == nil {
		panic("core: protocol ack for unknown request")
	}
	delete(pc.reqs, m.req)
	pc.owner[req.key] = noProtoOwner
	pc.replyRead(m.at, req.host, req.fn, req.arg)
}

// replyRead delivers the server's reply to the reader: a turnaround plus
// one control transit, after which the parked read proceeds.
func (pc *protoCoordinator) replyRead(at sim.Time, reader int32, fn func(any), arg any) {
	c := pc.c
	r := c.hosts[reader]
	c.hostShard[reader].eng.At(at+c.lookahead, func() {
		r.sendControl(func() { fn(arg) })
	})
}
