// Package trace defines the block-level I/O trace format used throughout
// the simulator. Per the paper (§4): "we use block-level traces containing
// read and write operations. Each operation identifies a file and a range
// of blocks within that file. Each operation also carries a thread ID and
// host ID." Blocks are 4 KiB.
//
// Traces exist in two on-disk encodings — a compact little-endian binary
// format and a human-readable text format — plus a streaming Source
// interface implemented by both the file readers and the synthetic
// generator, so multi-terabyte traces never need to be materialised.
package trace

import "fmt"

// BlockSize is the fixed block size in bytes.
const BlockSize = 4096

// Kind distinguishes reads from writes.
type Kind uint8

// Operation kinds.
const (
	Read Kind = iota
	Write
)

// String returns the kind's letter in the text encoding: "R" or "W".
func (k Kind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Op is one trace record: host h, thread t issues a read or write of Count
// blocks starting at block Block of file File.
type Op struct {
	Host   uint16
	Thread uint16
	Kind   Kind
	File   uint32
	Block  uint32
	Count  uint32
}

// Validate reports whether the op is well-formed.
func (o Op) Validate() error {
	if o.Kind != Read && o.Kind != Write {
		return fmt.Errorf("trace: invalid kind %d", o.Kind)
	}
	if o.Count == 0 {
		return fmt.Errorf("trace: zero-length op")
	}
	if uint64(o.Block)+uint64(o.Count) > 1<<32 {
		return fmt.Errorf("trace: block range overflows 32 bits")
	}
	return nil
}

// String renders the op for diagnostics, e.g. "h0 t1 R f2 b100 n8".
func (o Op) String() string {
	return fmt.Sprintf("h%d t%d %s f%d b%d n%d", o.Host, o.Thread, o.Kind, o.File, o.Block, o.Count)
}

// BlockKey packs a (file, block) pair into the cache key space.
func BlockKey(file, block uint32) uint64 {
	return uint64(file)<<32 | uint64(block)
}

// Source streams trace operations. Next returns ok=false at end of trace.
type Source interface {
	Next() (op Op, ok bool)
}

// SliceSource adapts an in-memory []Op to a Source; tests use it heavily.
type SliceSource struct {
	ops []Op
	pos int
}

// NewSliceSource returns a Source over ops.
func NewSliceSource(ops []Op) *SliceSource { return &SliceSource{ops: ops} }

// Next implements Source.
func (s *SliceSource) Next() (Op, bool) {
	if s.pos >= len(s.ops) {
		return Op{}, false
	}
	op := s.ops[s.pos]
	s.pos++
	return op, true
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// QueueSource is a refillable Source: a FIFO of ops that its owner
// replaces with Load between drains. Cluster runs feed each host's driver
// through one of these; the driver sees an ordinary Source that
// temporarily runs dry between feeds. The zero value is an empty queue.
type QueueSource struct {
	ops  []Op
	head int
}

// Load replaces the queue's contents with ops, which it keeps without
// copying. A feed that must keep what is still pending puts Pending's ops
// first.
func (q *QueueSource) Load(ops []Op) { q.ops, q.head = ops, 0 }

// Pending returns the ops loaded but not yet consumed, oldest first. The
// slice aliases the queue's storage.
func (q *QueueSource) Pending() []Op { return q.ops[q.head:] }

// DropPending discards the ops loaded but not yet consumed and returns the
// number of blocks they covered. Time-bounded scenario phases call it at
// their deadline: pre-generated trace that was never dispatched is simply
// never issued.
func (q *QueueSource) DropPending() int64 {
	var blocks int64
	for _, op := range q.ops[q.head:] {
		blocks += int64(op.Count)
	}
	q.ops = q.ops[:0]
	q.head = 0
	return blocks
}

// Next implements Source.
func (q *QueueSource) Next() (Op, bool) {
	if q.head >= len(q.ops) {
		return Op{}, false
	}
	op := q.ops[q.head]
	q.head++
	return op, true
}

// Stats summarises a trace.
type Stats struct {
	Ops         uint64
	ReadOps     uint64
	WriteOps    uint64
	Blocks      uint64
	WriteBlocks uint64
	Hosts       int
	Threads     int
	Files       int
}

// Collect drains a Source and summarises it.
func Collect(src Source) Stats {
	var st Stats
	hosts := map[uint16]bool{}
	threads := map[uint32]bool{}
	files := map[uint32]bool{}
	for {
		op, ok := src.Next()
		if !ok {
			break
		}
		st.Ops++
		st.Blocks += uint64(op.Count)
		if op.Kind == Write {
			st.WriteOps++
			st.WriteBlocks += uint64(op.Count)
		} else {
			st.ReadOps++
		}
		hosts[op.Host] = true
		threads[uint32(op.Host)<<16|uint32(op.Thread)] = true
		files[op.File] = true
	}
	st.Hosts = len(hosts)
	st.Threads = len(threads)
	st.Files = len(files)
	return st
}
