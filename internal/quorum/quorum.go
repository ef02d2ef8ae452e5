// Package quorum implements an ABD-style read/write quorum engine over
// versioned registers (Attiya, Bar-Noy & Dolev; the SC-ABD shape of Ekström
// & Haridi, PAPERS.md). A register is replicated at 2f+1 members; a write
// queries a majority for the highest version (phase 1), then installs the
// value at version max+1 at a majority (phase 2); a read queries a majority
// and writes the highest value back to a majority before returning it (read
// repair), so any two majorities intersect in at least one replica that has
// seen the committed value — no two majorities can disagree on a committed
// (object, version).
//
// The engine is a pure state machine in the lockmgr idiom: it performs no
// I/O. Replica is the member-side register store; Op is the client-side
// two-phase protocol. Callers drive both from their own receive loops and
// carry the emitted requests over whatever transport they own (the EC
// service loop and the check package's deterministic explorer both do).
// Versions are ordered lexicographically by (version, writer), mirroring
// ABD's (sequence, pid) timestamps, which maps one-to-one onto
// internal/store's (version, writer) cells.
package quorum

import "sdso/internal/store"

// Value is one versioned register state. Writer breaks same-version ties by
// process ID (higher wins), exactly like the store's PID arbitration.
type Value struct {
	Version int64
	Writer  int
	Data    []byte
}

// Less reports whether v is strictly older than w under (version, writer)
// lexicographic order.
func (v Value) Less(w Value) bool {
	if v.Version != w.Version {
		return v.Version < w.Version
	}
	return v.Writer < w.Writer
}

// Replica is the member-side register store: the subset of objects this
// member replicates, each at the highest (version, writer) it has seen.
type Replica struct {
	regs map[store.ID]Value
}

// NewReplica returns an empty replica.
func NewReplica() *Replica {
	return &Replica{regs: make(map[store.ID]Value)}
}

// Read returns the replica's current value for obj. ok is false when the
// replica has never seen the object; ABD treats that as version 0.
func (r *Replica) Read(obj store.ID) (Value, bool) {
	v, ok := r.regs[obj]
	return v, ok
}

// Apply adopts v for obj iff it is newer than the local value under
// (version, writer) order; it reports whether the value was adopted. Apply
// is idempotent and commutative, so phase-2 retransmissions and out-of-order
// delivery are harmless.
func (r *Replica) Apply(obj store.ID, v Value) bool {
	cur, ok := r.regs[obj]
	if ok && !cur.Less(v) {
		return false
	}
	data := make([]byte, len(v.Data))
	copy(data, v.Data)
	r.regs[obj] = Value{Version: v.Version, Writer: v.Writer, Data: data}
	return true
}

// OpKind distinguishes reads from writes.
type OpKind uint8

// Op kinds.
const (
	// OpRead queries a majority and writes the highest value back (read
	// repair) before returning it.
	OpRead OpKind = iota + 1
	// OpWrite installs a new value at version max+1 at a majority.
	OpWrite
)

// Phases of an op's lifecycle.
const (
	// PhaseQuery is phase 1: collecting version replies.
	PhaseQuery = 1
	// PhaseWrite is phase 2: collecting write-back acks.
	PhaseWrite = 2
	// PhaseDone means the op committed.
	PhaseDone = 3
)

// Op is one client-side quorum operation over a single register. It is
// driven by feeding it member replies: OnVersion during phase 1, OnAck
// during phase 2. The op ignores duplicate and straggler replies, so lossy
// retransmitting callers need no extra bookkeeping.
type Op struct {
	kind     OpKind
	obj      store.ID
	members  []int
	majority int

	phase  int
	max    Value
	p1From map[int]bool
	p2From map[int]bool

	data   []byte // OpWrite payload
	writer int    // OpWrite tie-break PID
	commit Value  // phase-2 value
}

// NewRead starts a quorum read of obj over the given replica group.
// majority is the quorum size — f+1 for a group of 2f+1. It is fixed at op
// creation and never recomputed from the live member count: quorums are
// always of the full group, which is what makes two of them intersect.
func NewRead(obj store.ID, members []int, majority int) *Op {
	return newOp(OpRead, obj, members, majority)
}

// NewWrite starts a quorum write of data to obj, attributed to writer.
func NewWrite(obj store.ID, members []int, majority int, data []byte, writer int) *Op {
	o := newOp(OpWrite, obj, members, majority)
	o.data = make([]byte, len(data))
	copy(o.data, data)
	o.writer = writer
	return o
}

func newOp(kind OpKind, obj store.ID, members []int, majority int) *Op {
	ms := make([]int, len(members))
	copy(ms, members)
	return &Op{
		kind:     kind,
		obj:      obj,
		members:  ms,
		majority: majority,
		phase:    PhaseQuery,
		max:      Value{Version: 0, Writer: -1},
		p1From:   make(map[int]bool),
		p2From:   make(map[int]bool),
	}
}

// Kind returns the op's kind.
func (o *Op) Kind() OpKind { return o.kind }

// Obj returns the register the op targets.
func (o *Op) Obj() store.ID { return o.obj }

// Phase returns the op's current phase.
func (o *Op) Phase() int { return o.phase }

// Members returns the replica group, the phase-1 query targets.
func (o *Op) Members() []int {
	out := make([]int, len(o.members))
	copy(out, o.members)
	return out
}

// OnVersion feeds a phase-1 reply: member from reports its current value.
// When the majority-th distinct reply arrives the op advances to phase 2 and
// returns (write-back value, phase-2 targets, true): the caller must send
// the value to every target and route the acks to OnAck. Before that — and
// for stragglers after it — it returns (zero, nil, false).
func (o *Op) OnVersion(from int, v Value) (Value, []int, bool) {
	if o.phase != PhaseQuery || o.p1From[from] || !o.member(from) {
		return Value{}, nil, false
	}
	o.p1From[from] = true
	if o.max.Less(v) {
		o.max = v
	}
	if len(o.p1From) < o.majority {
		return Value{}, nil, false
	}
	o.phase = PhaseWrite
	switch o.kind {
	case OpWrite:
		o.commit = Value{Version: o.max.Version + 1, Writer: o.writer, Data: o.data}
	default:
		// Read repair: re-install the highest value seen so any later
		// majority also intersects a holder of it.
		o.commit = o.max
	}
	return o.commit, o.Members(), true
}

// OnAck feeds a phase-2 ack from a member that applied the write-back. It
// returns true exactly once, when the majority-th distinct ack commits the
// op.
func (o *Op) OnAck(from int) bool {
	if o.phase != PhaseWrite || o.p2From[from] || !o.member(from) {
		return false
	}
	o.p2From[from] = true
	if len(o.p2From) < o.majority {
		return false
	}
	o.phase = PhaseDone
	return true
}

// Committed reports whether the op has committed.
func (o *Op) Committed() bool { return o.phase == PhaseDone }

// Result returns the committed value: the written value for OpWrite, the
// repaired highest value for OpRead. Valid from phase 2 onward.
func (o *Op) Result() Value { return o.commit }

func (o *Op) member(id int) bool {
	for _, m := range o.members {
		if m == id {
			return true
		}
	}
	return false
}

// Majority returns the quorum size for a group of size n: floor(n/2)+1.
func Majority(n int) int { return n/2 + 1 }

// Group returns the replica group for a shard based at member base in a
// ring of n members with replication factor f: the 2f+1 members
// {base, base+1, ..., base+2f} mod n. It is the static placement both EC
// quorum groups and the checkpoint fan-out use; n must be at least 2f+1 for
// the members to be distinct.
func Group(base, n, f int) []int {
	size := 2*f + 1
	if size > n {
		size = n
	}
	out := make([]int, 0, size)
	for i := 0; i < size; i++ {
		out = append(out, (base+i)%n)
	}
	return out
}
