package trace

import (
	"strings"
	"testing"
)

// TestNilRecorderIsInert pins the contract the hot paths rely on: every
// method of a nil *Recorder is a safe no-op, so callers record
// unconditionally without a nil check of their own.
func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Record(OpTick, 1, 2, 3, 4, 5) // must not panic
	if r.Events() != nil {
		t.Errorf("nil recorder Events = %v, want nil", r.Events())
	}
	if r.Proc() != -1 {
		t.Errorf("nil recorder Proc = %d, want -1", r.Proc())
	}
}

func TestRecorderAccumulates(t *testing.T) {
	r := NewRecorder(3)
	if r.Proc() != 3 {
		t.Fatalf("Proc = %d, want 3", r.Proc())
	}
	r.Record(OpTick, -1, 0, 0, 1, 0)
	r.Record(OpWrite, -1, 7, 1, 1, 0)
	r.Record(OpApply, 2, 7, 4, 2, 0)
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("Events holds %d entries, want 3", len(evs))
	}
	want := Event{Op: OpApply, Peer: 2, Obj: 7, Ver: 4, Time: 2}
	if evs[2] != want {
		t.Errorf("Events[2] = %v, want %v", evs[2], want)
	}
}

// TestOpStrings makes sure every defined op renders a name (the oracle's
// failure reports lean on these) and unknown values degrade gracefully.
func TestOpStrings(t *testing.T) {
	for op := OpTick; op <= OpMgrRelease; op++ {
		if s := op.String(); strings.HasPrefix(s, "op(") {
			t.Errorf("op %d has no name", int(op))
		}
	}
	if s := Op(250).String(); s != "op(250)" {
		t.Errorf("unknown op renders %q", s)
	}
	e := Event{Op: OpApply, Peer: 2, Obj: 7, Ver: 4, Time: 9, Aux: 1}
	if got := e.String(); !strings.Contains(got, "apply") || !strings.Contains(got, "obj=7") {
		t.Errorf("Event.String() = %q, want op name and obj", got)
	}
}
