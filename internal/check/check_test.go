package check

import (
	"strings"
	"testing"

	"sdso/internal/diff"
	"sdso/internal/store"
	"sdso/internal/trace"
)

// ev builds one event.
func ev(op trace.Op, peer int, obj, ver, t, aux int64) trace.Event {
	return trace.Event{Op: op, Peer: int32(peer), Obj: obj, Ver: ver, Time: t, Aux: aux}
}

// cleanPair is a minimal two-process history that satisfies every temporal
// invariant: both processes tick 1..4, exchange with each other every tick,
// and proc 0 ships one write that proc 1 applies.
func cleanPair() History {
	mk := func(me, peer int) []trace.Event {
		var evs []trace.Event
		evs = append(evs, ev(trace.OpSched, peer, 0, 0, 0, 1))
		for t := int64(1); t <= 4; t++ {
			evs = append(evs,
				ev(trace.OpTick, -1, 0, 0, t, 0),
				ev(trace.OpSyncRecv, peer, 0, 0, t, t),
				ev(trace.OpRendezvous, peer, 0, 0, t, t+1),
			)
		}
		evs = append(evs, ev(trace.OpDone, -1, 0, 0, 4, 0))
		return evs
	}
	h := History{
		Procs:   [][]trace.Event{mk(0, 1), mk(1, 0)},
		Stores:  []*store.Store{store.New(), store.New()},
		Crashed: []bool{false, false},
	}
	for _, st := range h.Stores {
		if err := st.Register(7, []byte{0}); err != nil {
			panic(err)
		}
	}
	// Proc 0 writes object 7 at tick 2 and flushes it to proc 1 at tick 3;
	// proc 1 applies it.
	h.Procs[0] = append(h.Procs[0],
		ev(trace.OpWrite, 0, 7, 1, 2, 0),
		ev(trace.OpSendObj, 1, 7, 1, 3, 0),
		ev(trace.OpDataSend, 1, 0, 0, 3, 1),
	)
	h.Procs[1] = append(h.Procs[1], ev(trace.OpApply, 0, 7, 1, 3, 3))
	if _, err := h.Stores[0].UpdateBy(7, []byte{9}, 0); err != nil {
		panic(err)
	}
	if err := h.Stores[1].ApplyDiffFrom(7, replaceDiff([]byte{9}), 1, 0); err != nil {
		panic(err)
	}
	return h
}

func replaceDiff(b []byte) diff.Diff {
	cp := make([]byte, len(b))
	copy(cp, b)
	return diff.Diff{Replace: true, Len: len(cp), Runs: []diff.Run{{Off: 0, Data: cp}}}
}

// applyState brings a store's object to (data, version, writer) through the
// public API.
func applyState(t *testing.T, st *store.Store, id store.ID, data []byte, ver int64, writer int) {
	t.Helper()
	if err := st.ApplyDiffFrom(id, replaceDiff(data), ver, writer); err != nil {
		t.Fatal(err)
	}
}

func analyzeClean(t *testing.T, h History, opts Options) *Report {
	t.Helper()
	rep := Analyze(h, opts)
	if !rep.Ok() {
		t.Fatalf("clean history reported violations:\n%s", rep)
	}
	return rep
}

func wantClass(t *testing.T, rep *Report, class string) {
	t.Helper()
	if rep.Ok() {
		t.Fatalf("mutated history passed; want a %q violation", class)
	}
	for _, v := range rep.Violations {
		if v.Class == class {
			return
		}
	}
	t.Fatalf("no %q violation in:\n%s", class, rep)
}

func TestOracleCleanHistory(t *testing.T) {
	rep := analyzeClean(t, cleanPair(), Options{})
	if rep.Events == 0 {
		t.Fatal("no events analyzed")
	}
}

func TestOracleClockRegression(t *testing.T) {
	h := cleanPair()
	// Mutate proc 0's third tick to repeat tick 2: the clock must advance
	// by exactly one per exchange.
	for i, e := range h.Procs[0] {
		if e.Op == trace.OpTick && e.Time == 3 {
			h.Procs[0][i].Time = 2
			break
		}
	}
	wantClass(t, Analyze(h, Options{}), "clock")
}

func TestOracleSyncBuffering(t *testing.T) {
	h := cleanPair()
	// A SYNC stamped ahead of the local clock must be buffered, not
	// consumed.
	for i, e := range h.Procs[1] {
		if e.Op == trace.OpSyncRecv && e.Time == 2 {
			h.Procs[1][i].Aux = 4
			break
		}
	}
	wantClass(t, Analyze(h, Options{}), "sync-buffering")
}

func TestOracleSyncRegression(t *testing.T) {
	h := cleanPair()
	// Consuming a lower stamp after a higher one from the same peer is
	// out-of-order consumption.
	for i, e := range h.Procs[1] {
		if e.Op == trace.OpSyncRecv && e.Time == 4 {
			h.Procs[1][i].Aux = 1
			break
		}
	}
	wantClass(t, Analyze(h, Options{}), "sync-buffering")
}

func TestOracleDroppedExchange(t *testing.T) {
	h := cleanPair()
	// Delete proc 0's tick-2 rendezvous with proc 1: the clock then passes
	// the scheduled exchange without honouring it.
	var out []trace.Event
	for _, e := range h.Procs[0] {
		if e.Op == trace.OpRendezvous && e.Time == 2 {
			continue
		}
		out = append(out, e)
	}
	h.Procs[0] = out
	wantClass(t, Analyze(h, Options{}), "xlist-adherence")
}

func TestOracleOpenScheduleAtEndIsFine(t *testing.T) {
	h := cleanPair()
	// Dropping only the FINAL rendezvous leaves a schedule open when the
	// history ends — that is a crash-truncation shape, not a violation.
	var out []trace.Event
	for _, e := range h.Procs[0] {
		if e.Op == trace.OpRendezvous && e.Time == 4 {
			continue
		}
		out = append(out, e)
	}
	h.Procs[0] = out
	analyzeClean(t, h, Options{})
}

func TestOracleWrongPIDWinner(t *testing.T) {
	h := cleanPair()
	// Proc 1 writes object 7 at version 1 too (a data race with proc 0);
	// the tie must go to the lower PID, so proc 1 applying proc 0's write
	// is correct — but proc 1's replica crediting itself is not, and an
	// apply in the other direction (higher PID over lower) is the seeded
	// violation here: proc 0 applies proc 1's version-1 write over its own.
	h.Procs[0] = append(h.Procs[0], ev(trace.OpApply, 1, 7, 1, 4, 4))
	wantClass(t, Analyze(h, Options{}), "pid-arbitration")
}

func TestOracleWrongPIDDiscard(t *testing.T) {
	h := cleanPair()
	// Proc 1 holds proc 0's version-1 write, then discards a version-1
	// write from a lower PID... there is none below 0, so stage it on a
	// third proc: proc 1 applied writer 1's version first, then discarded
	// writer 0's equal version as a tie-loss — the lower PID must win.
	h.Procs[1] = append(h.Procs[1],
		ev(trace.OpApply, 1, 8, 1, 4, 4),
		ev(trace.OpStale, 0, 8, 1, 4, 1),
	)
	wantClass(t, Analyze(h, Options{}), "pid-arbitration")
}

func TestOracleVersionRegression(t *testing.T) {
	h := cleanPair()
	// Applying a version below the tracked one regresses the replica.
	h.Procs[1] = append(h.Procs[1], ev(trace.OpApply, 0, 7, 0, 4, 4))
	wantClass(t, Analyze(h, Options{}), "pid-arbitration")
}

func TestOracleCrossReplicaPIDWinner(t *testing.T) {
	h := cleanPair()
	// Both procs write object 7 at version 1 and both flushed to each
	// other, yet proc 1's replica credits itself (PID 1) — the lower
	// competing PID 0 must have won there.
	h.Procs[1] = append(h.Procs[1],
		ev(trace.OpWrite, 1, 7, 1, 2, 0),
		ev(trace.OpSendObj, 0, 7, 1, 3, 0),
		ev(trace.OpDataSend, 0, 0, 0, 3, 1),
	)
	applyState(t, h.Stores[1], 7, []byte{8}, 1, 1)
	wantClass(t, Analyze(h, Options{}), "pid-arbitration")
}

func TestOracleDroppedDelivery(t *testing.T) {
	h := cleanPair()
	// Proc 0 flushed (7, v1) to proc 1 at a rendezvous proc 1 honoured,
	// but proc 1's replica never got it.
	h.Stores[1] = store.New()
	if err := h.Stores[1].Register(7, []byte{0}); err != nil {
		t.Fatal(err)
	}
	wantClass(t, Analyze(h, Options{}), "delivery")
}

func TestOracleDeliveryExcusedOnLossy(t *testing.T) {
	h := cleanPair()
	h.Stores[1] = store.New()
	if err := h.Stores[1].Register(7, []byte{0}); err != nil {
		t.Fatal(err)
	}
	// Remove the now-inconsistent apply event as well: under loss the
	// diff never arrived.
	var out []trace.Event
	for _, e := range h.Procs[1] {
		if e.Op == trace.OpApply {
			continue
		}
		out = append(out, e)
	}
	h.Procs[1] = out
	analyzeClean(t, h, Options{Lossy: true})
}

func TestOracleConvergence(t *testing.T) {
	h := cleanPair()
	// Same (version, writer) on both replicas but different bytes.
	applyState(t, h.Stores[1], 7, []byte{5}, 1, 0)
	wantClass(t, Analyze(h, Options{Convergence: true}), "convergence")
}

func TestOracleSpatialWithholding(t *testing.T) {
	h := cleanPair()
	// Proc 1's tank sits on object 7's cell at tick 3, yet proc 0
	// withheld object 7 from it that tick.
	h.Procs[1] = append(h.Procs[1], ev(trace.OpTankAt, -1, 7, 0, 3, 0))
	h.Procs[0] = append(h.Procs[0], ev(trace.OpWithheld, 1, 7, 0, 3, 0))
	opts := Options{
		Spatial: true,
		Radius:  2,
		ObjPos:  func(obj int64) (int, int) { return int(obj), 0 },
	}
	wantClass(t, Analyze(h, opts), "spatial-withhold")
}

func TestOracleSpatialWithholdingFarIsFine(t *testing.T) {
	h := cleanPair()
	h.Procs[1] = append(h.Procs[1], ev(trace.OpTankAt, -1, 100, 0, 3, 0))
	h.Procs[0] = append(h.Procs[0], ev(trace.OpWithheld, 1, 7, 0, 3, 0))
	opts := Options{
		Spatial: true,
		Radius:  2,
		ObjPos:  func(obj int64) (int, int) { return int(obj), 0 },
	}
	analyzeClean(t, h, opts)
}

// interestPair is a loss-free two-process history of the given length in
// which proc 0 writes object 7 (cell (7, 0)) at tick 2 and withholds it.
// Proc 1's tank sits far away through tick 3 and on the object's cell from
// tick 4, so the write becomes visible to proc 1 at tick 4. When
// deliverAt > 0, proc 0 flushes the write at that tick's rendezvous and
// proc 1 applies it.
func interestPair(t *testing.T, ticks, deliverAt int64) History {
	t.Helper()
	h := History{
		Procs:   make([][]trace.Event, 2),
		Stores:  []*store.Store{store.New(), store.New()},
		Crashed: []bool{false, false},
	}
	for me, st := range h.Stores {
		if err := st.Register(7, []byte{0}); err != nil {
			t.Fatal(err)
		}
		h.Procs[me] = append(h.Procs[me], ev(trace.OpSched, 1-me, 0, 0, 0, 1))
	}
	for tick := int64(1); tick <= ticks; tick++ {
		x := int64(100)
		if tick >= 4 {
			x = 7
		}
		h.Procs[1] = append(h.Procs[1], ev(trace.OpTankAt, -1, x, 0, tick, 0))
		for me := range h.Procs {
			h.Procs[me] = append(h.Procs[me],
				ev(trace.OpTick, -1, 0, 0, tick, 0),
				ev(trace.OpSyncRecv, 1-me, 0, 0, tick, tick),
				ev(trace.OpRendezvous, 1-me, 0, 0, tick, tick+1),
			)
		}
		switch tick {
		case 2:
			h.Procs[0] = append(h.Procs[0], ev(trace.OpWrite, 0, 7, 1, tick, 0))
		case deliverAt:
			h.Procs[0] = append(h.Procs[0],
				ev(trace.OpSendObj, 1, 7, 1, tick, 0),
				ev(trace.OpDataSend, 1, 0, 0, tick, 1),
			)
			h.Procs[1] = append(h.Procs[1], ev(trace.OpApply, 0, 7, 1, tick, tick))
			applyState(t, h.Stores[1], 7, []byte{9}, 1, 0)
		}
	}
	if _, err := h.Stores[0].UpdateBy(7, []byte{9}, 0); err != nil {
		t.Fatal(err)
	}
	for me := range h.Procs {
		h.Procs[me] = append(h.Procs[me], ev(trace.OpDone, -1, 0, 0, ticks, 0))
	}
	return h
}

// TestOracleInterestSafety shows the interest-safety check can fire: a
// withheld write must reach every process that can see the object within
// InterestSlack ticks of it becoming visible, or the history must end
// first.
func TestOracleInterestSafety(t *testing.T) {
	opts := Options{
		InterestSafety: true,
		InterestSlack:  4,
		Radius:         2,
		ObjPos:         func(obj int64) (int, int) { return int(obj), 0 },
	}
	for _, tc := range []struct {
		name             string
		ticks, deliverAt int64
		violation        bool
	}{
		// Visible from tick 4, so the budget runs out at tick 8.
		{"never-delivered", 12, 0, true},
		{"delivered-within-slack", 12, 8, false},
		{"delivered-one-tick-late", 12, 9, true},
		{"outlives-history", 7, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := interestPair(t, tc.ticks, tc.deliverAt)
			if tc.violation {
				wantClass(t, Analyze(h, opts), "interest-safety")
				return
			}
			analyzeClean(t, h, opts)
		})
	}
}

func TestOracleOutOfRangeDelivery(t *testing.T) {
	h := cleanPair()
	// MSYNC2: proc 0's DATA at tick 3 reaches a peer whose tanks are far
	// beyond any relevance bound, with no box justification either (the
	// sent object is co-located with proc 0's tank).
	h.Procs[0] = append(h.Procs[0], ev(trace.OpTankAt, -1, 0, 0, 3, 0))
	h.Procs[1] = append(h.Procs[1], ev(trace.OpTankAt, -1, 100, 0, 3, 0))
	opts := Options{
		DeliveryBound: true,
		Radius:        2,
		ObjPos:        func(obj int64) (int, int) { return int(obj), 0 },
	}
	wantClass(t, Analyze(h, opts), "spatial-delivery")
}

func TestOracleNearDeliveryIsFine(t *testing.T) {
	h := cleanPair()
	h.Procs[0] = append(h.Procs[0], ev(trace.OpTankAt, -1, 0, 0, 3, 0))
	h.Procs[1] = append(h.Procs[1], ev(trace.OpTankAt, -1, 9, 0, 3, 0))
	opts := Options{
		DeliveryBound: true,
		Radius:        2,
		ObjPos:        func(obj int64) (int, int) { return int(obj), 0 },
	}
	analyzeClean(t, h, opts)
}

func TestOracleECLockOrder(t *testing.T) {
	h := History{Procs: [][]trace.Event{{
		ev(trace.OpTick, -1, 0, 0, 1, 0),
		ev(trace.OpLockReq, 0, 9, 0, 0, 1),
		ev(trace.OpLockReq, 0, 3, 0, 0, 1), // descends: deadlock-prone
	}}}
	wantClass(t, Analyze(h, Options{EC: true}), "lock-order")
}

func TestOracleECLockOrderResetsPerTick(t *testing.T) {
	h := History{Procs: [][]trace.Event{{
		ev(trace.OpTick, -1, 0, 0, 1, 0),
		ev(trace.OpLockReq, 0, 9, 0, 0, 1),
		ev(trace.OpTick, -1, 0, 0, 2, 0),
		ev(trace.OpLockReq, 0, 3, 0, 0, 1), // new tick: fresh order
	}}}
	analyzeClean(t, h, Options{EC: true})
}

func TestOracleECWriteWithoutLock(t *testing.T) {
	h := History{Procs: [][]trace.Event{{
		ev(trace.OpTick, -1, 0, 0, 1, 0),
		ev(trace.OpWrite, 0, 9, 1, 0, 0),
	}}}
	wantClass(t, Analyze(h, Options{EC: true}), "lock-serialize")
}

func TestOracleECOverlappingGrant(t *testing.T) {
	h := History{Procs: [][]trace.Event{{
		ev(trace.OpMgrGrant, 1, 9, 0, 0, 1), // write grant to proc 1
		ev(trace.OpMgrGrant, 2, 9, 0, 0, 1), // ... and to proc 2, unreleased
	}}}
	wantClass(t, Analyze(h, Options{EC: true}), "lock-serialize")
}

func TestOracleECGrantAfterRelease(t *testing.T) {
	h := History{Procs: [][]trace.Event{{
		ev(trace.OpMgrGrant, 1, 9, 0, 0, 1),
		ev(trace.OpMgrRelease, 1, 9, 1, 0, 1),
		ev(trace.OpMgrGrant, 2, 9, 1, 0, 1),
	}}}
	analyzeClean(t, h, Options{EC: true})
}

func TestOracleECReadersShare(t *testing.T) {
	h := History{Procs: [][]trace.Event{{
		ev(trace.OpMgrGrant, 1, 9, 0, 0, 0),
		ev(trace.OpMgrGrant, 2, 9, 0, 0, 0), // two readers may overlap
	}}}
	analyzeClean(t, h, Options{EC: true})
}

func TestReportString(t *testing.T) {
	h := cleanPair()
	rep := Analyze(h, Options{})
	if got := rep.String(); !strings.Contains(got, "ok") {
		t.Fatalf("clean report string = %q", got)
	}
	h.Procs[0][1].Time = 9
	rep = Analyze(h, Options{})
	if got := rep.String(); !strings.Contains(got, "violation") {
		t.Fatalf("failing report string = %q", got)
	}
}
