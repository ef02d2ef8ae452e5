// Package trace records per-process observation histories for the
// consistency oracle in internal/check. A Recorder is an append-only
// in-memory event log attached to one process; the protocol layers
// (internal/core, internal/protocol/ec, internal/protocol/lookahead)
// call Record at each observable transition — clock ticks, exchange
// scheduling, data sends and applies, SYNC receipt, join/evict, lock
// traffic — and the oracle replays the logs after the run.
//
// Tracing is off by default: a nil *Recorder is a valid no-op sink, and
// every Record call on it returns immediately without allocating, so the
// hot paths pay one nil check when tracing is disabled. Events on one
// recorder are appended from the owning process's goroutine only (the
// same single-writer discipline the runtime itself follows).
package trace

import "fmt"

// Op classifies an observation event.
type Op uint8

const (
	opNone Op = iota

	// Clock and exchange-schedule events (internal/core).
	OpTick       // Time = the new logical tick after Exchange advanced the clock
	OpSched      // Peer scheduled for a future exchange; Aux = scheduled tick
	OpRendezvous // exchange with Peer completed at Time; Aux = next scheduled tick
	OpSyncRecv   // SYNC from Peer consumed; Time = local tick, Aux = SYNC stamp
	OpSyncEarly  // SYNC from Peer buffered (stamp ahead of local clock); Aux = stamp

	// Data-plane events (internal/core).
	OpWrite    // local write: Obj reached Ver at local tick Time
	OpSendObj  // buffered diff for Obj at Ver flushed to Peer; Time = message stamp
	OpDataSend // DATA message to Peer; Time = stamp, Aux = number of object diffs
	OpWithheld // s-function withheld pending Obj from Peer at tick Time
	OpApply    // remote diff applied: Obj reached Ver written by Peer; Aux = msg stamp
	OpStale    // remote diff discarded: Aux = 1 for a PID tie-loss, 0 for an old version
	OpAdopt    // full-state fetch reply adopted: Obj raised to Ver served by Peer (writer unknown); Aux = msg stamp

	// Liveness and membership events (internal/core).
	OpDone     // local process finished; Aux = 1 if it won
	OpPeerDone // DONE received from Peer
	OpEvict    // Peer evicted as crashed
	OpDeparted // Peer marked departed for the Exchange of tick Time (sent nothing unless it answers); Aux = its next rendezvous tick
	OpAdmit    // Peer admitted (join served); Aux = admission tick
	OpJoined   // local process finished joining; Time = resumed tick

	// Game-layer position events (internal/protocol/lookahead).
	OpTankAt // own tank at (Obj=x, Ver=y) when exchanging at tick Time

	// Entry-consistency lock events (internal/protocol/ec). App side:
	OpLockReq     // lock on Obj requested; Aux = 1 for write, Time = app tick
	OpLockGranted // lock on Obj granted; Aux = mode, Ver = version in grant
	OpLockRel     // lock on Obj released; Aux = 1 if dirty, Ver = release version
	// Manager side:
	OpMgrGrant   // grant sent: Peer now holds Obj; Aux = mode, Ver = owner version
	OpMgrRelease // release processed: Peer gave up Obj; Aux = 1 if dirty, Ver = version
)

var opNames = [...]string{
	OpTick: "tick", OpSched: "sched", OpRendezvous: "rendezvous",
	OpSyncRecv: "sync-recv", OpSyncEarly: "sync-early",
	OpWrite: "write", OpSendObj: "send-obj", OpDataSend: "data-send",
	OpWithheld: "withheld", OpApply: "apply", OpStale: "stale", OpAdopt: "adopt",
	OpDone: "done", OpPeerDone: "peer-done", OpEvict: "evict", OpDeparted: "departed",
	OpAdmit: "admit", OpJoined: "joined", OpTankAt: "tank-at",
	OpLockReq: "lock-req", OpLockGranted: "lock-granted", OpLockRel: "lock-rel",
	OpMgrGrant: "mgr-grant", OpMgrRelease: "mgr-release",
}

// String returns the op's short name.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Event is one observation. Field meaning depends on Op (see the Op
// constants); unused fields are zero.
type Event struct {
	Op   Op
	Peer int32 // the other process involved, or the writer for OpApply
	Obj  int64 // object ID
	Ver  int64 // object version
	Time int64 // local logical tick or message stamp
	Aux  int64 // op-specific extra (scheduled tick, SYNC stamp, mode, ...)
}

// String renders the event for failure reports.
func (e Event) String() string {
	return fmt.Sprintf("%s{peer=%d obj=%d ver=%d t=%d aux=%d}",
		e.Op, e.Peer, e.Obj, e.Ver, e.Time, e.Aux)
}

// Recorder accumulates one process's observation history.
type Recorder struct {
	proc   int
	events []Event
}

// NewRecorder returns an empty history for the given process ID.
func NewRecorder(proc int) *Recorder {
	return &Recorder{proc: proc}
}

// Record appends one event. It is a no-op on a nil recorder, so callers
// hold a possibly-nil *Recorder and call unconditionally.
func (r *Recorder) Record(op Op, peer int, obj, ver, t, aux int64) {
	if r == nil {
		return
	}
	r.events = append(r.events, Event{
		Op: op, Peer: int32(peer), Obj: obj, Ver: ver, Time: t, Aux: aux,
	})
}

// Proc returns the process ID the recorder was created for.
func (r *Recorder) Proc() int {
	if r == nil {
		return -1
	}
	return r.proc
}

// Events returns the recorded history. Call only after the owning process
// has stopped recording; the slice is not copied.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events
}
