// Package check is the consistency oracle: it replays the per-process
// observation histories recorded by internal/trace and checks the paper's
// invariants after the fact — logical-clock monotonicity and SYNC buffering
// (BSYNC's temporal constraint), exchange-list adherence (every scheduled
// rendezvous is either honoured or explicitly cancelled by a DONE/eviction),
// PID-order data-race arbitration, MSYNC/MSYNC2 spatial-filter soundness,
// post-quiescence replica convergence, and EC per-object lock
// serializability. The oracle is pure: it never talks to the runtime, only
// reads histories and final stores, so one recorded run can be re-analyzed
// under different option sets.
package check

import (
	"fmt"
	"sort"
	"strings"

	"sdso/internal/store"
	"sdso/internal/trace"
)

// History is the input to the oracle: one event log per process plus each
// process's final store. A nil store (or a true Crashed flag) marks a
// process that died mid-run; the delivery and convergence checks excuse it.
type History struct {
	// Procs holds each process's recorded events, indexed by process ID.
	Procs [][]trace.Event
	// Stores holds each process's final replica, indexed by process ID;
	// nil entries are skipped by store-side checks.
	Stores []*store.Store
	// Crashed marks processes that fail-stopped and never rejoined.
	Crashed []bool
}

// Options selects which invariants apply to the recorded run. The temporal
// checks (clock, SYNC buffering, exchange-list adherence, PID arbitration)
// always run; the rest are protocol- and scenario-specific.
type Options struct {
	// Spatial enables the MSYNC/MSYNC2 withholding check: an update may
	// be withheld from a peer only if the peer's tanks are all outside
	// the interaction radius of the object.
	Spatial bool
	// DeliveryBound enables the MSYNC2 relevance check: an update
	// delivered to a peer must be justifiable by proximity (within
	// Radius plus the maximum drift since the last rendezvous).
	DeliveryBound bool
	// Radius is the game's interaction radius (game.Config.InteractionRadius).
	Radius int
	// ObjPos maps an object ID to its grid position; required by the
	// spatial checks.
	ObjPos func(obj int64) (x, y int)
	// EC enables the entry-consistency lock checks.
	EC bool
	// Lossy marks runs under message loss or crashes: per-message
	// delivery and cross-replica arbitration checks are skipped (loss
	// legitimately suppresses deliveries), while the per-process checks
	// still apply.
	Lossy bool
	// Convergence asserts post-quiescence replica agreement: any two
	// surviving replicas that hold the same (version, writer) of an
	// object hold identical bytes. Each process's writes carry strictly
	// increasing versions, so (writer, version) names one unique write
	// and the bytes must match wherever it landed — sound for every
	// lookahead protocol, even under loss (replicas merely end up at
	// different versions, which the delivery check covers separately).
	Convergence bool
	// InterestSafety enables the interest-management visibility check: no
	// process may miss an update for an object inside its sensing radius
	// once the object has been visible for InterestSlack ticks — the
	// interest machinery's budget for the rendezvous whose flush backstop
	// delivers the withheld update; nothing else carries it, since
	// interest never pulls. Runs only on loss-free histories
	// without joins (loss and snapshots legitimately suppress or bypass
	// the per-apply evidence the check rests on).
	InterestSafety bool
	// InterestSlack is the delivery budget, in ticks, granted by
	// InterestSafety before a visible-but-stale object is a violation.
	// Zero means DefaultInterestSlack.
	InterestSlack int64
}

// DefaultInterestSlack is the InterestSafety budget used when
// Options.InterestSlack is zero: generous enough for an unbatched
// interest-paced schedule (stretch cap 4), its flush-triggering
// rendezvous and beacon staleness — padded, not derived from the schedule.
const DefaultInterestSlack = 16

// Violation is one invariant breach.
type Violation struct {
	// Class names the invariant: "clock", "sync-buffering",
	// "xlist-adherence", "pid-arbitration", "spatial-withhold",
	// "spatial-delivery", "delivery", "interest-safety", "convergence",
	// "lock-order", "lock-serialize".
	Class string
	// Proc is the process whose history exhibits the breach.
	Proc int
	// Event is the offending event (zero for store-level breaches).
	Event trace.Event
	// Detail explains the breach.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] proc %d: %s (%s)", v.Class, v.Proc, v.Detail, v.Event)
}

// Report is the oracle's verdict over one history.
type Report struct {
	Violations []Violation
	// Events is the total number of events analyzed.
	Events int
}

// Ok reports whether every checked invariant held.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// String renders the verdict; violations are capped at ten lines.
func (r *Report) String() string {
	if r.Ok() {
		return fmt.Sprintf("ok (%d events)", r.Events)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d violation(s) in %d events:", len(r.Violations), r.Events)
	for i, v := range r.Violations {
		if i == 10 {
			fmt.Fprintf(&b, "\n  ... and %d more", len(r.Violations)-10)
			break
		}
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return b.String()
}

// analyzer carries the working state of one Analyze call.
type analyzer struct {
	h    History
	opts Options
	rep  *Report
	// tanks[p][t] is process p's tank positions at tick t (from OpTankAt).
	tanks []map[int64][][2]int
	// finalTick[p] is the last OpTick time in p's history.
	finalTick []int64
	// consumed[q] holds q's consumed (sender, SYNC stamp) pairs; a
	// consumed SYNC proves everything the sender shipped up to that stamp
	// arrived while q was alive to process it (in-order links).
	consumed []map[syncKey]bool
	// hasJoin reports whether any process joined or was admitted (state
	// transferred via snapshots bypasses the event log, weakening the
	// per-process version tracking from exact to a lower bound).
	hasJoin bool
}

type syncKey struct {
	from  int32
	stamp int64
}

// Analyze replays the history and returns every invariant breach found.
func Analyze(h History, opts Options) *Report {
	a := &analyzer{h: h, opts: opts, rep: &Report{}}
	a.prescan()
	for p := range h.Procs {
		a.rep.Events += len(h.Procs[p])
		a.checkClock(p)
		a.checkAdherence(p)
		a.checkPIDLocal(p)
		if opts.Spatial {
			a.checkWithholding(p)
		}
		if opts.DeliveryBound {
			a.checkDeliveryBound(p)
		}
		if opts.EC {
			a.checkLocksApp(p)
			a.checkLocksMgr(p)
		}
	}
	if !opts.Lossy {
		a.checkDelivery()
		a.checkPIDGlobal()
		if opts.InterestSafety {
			a.checkInterestSafety()
		}
	}
	if opts.Convergence {
		a.checkConvergence()
	}
	return a.rep
}

func (a *analyzer) fail(class string, proc int, ev trace.Event, format string, args ...any) {
	a.rep.Violations = append(a.rep.Violations, Violation{
		Class: class, Proc: proc, Event: ev, Detail: fmt.Sprintf(format, args...),
	})
}

// prescan indexes tank positions and final ticks, and detects joins.
func (a *analyzer) prescan() {
	n := len(a.h.Procs)
	a.tanks = make([]map[int64][][2]int, n)
	a.finalTick = make([]int64, n)
	a.consumed = make([]map[syncKey]bool, n)
	for p, evs := range a.h.Procs {
		a.tanks[p] = make(map[int64][][2]int)
		a.consumed[p] = make(map[syncKey]bool)
		for _, e := range evs {
			switch e.Op {
			case trace.OpTankAt:
				a.tanks[p][e.Time] = append(a.tanks[p][e.Time], [2]int{int(e.Obj), int(e.Ver)})
			case trace.OpTick:
				if e.Time > a.finalTick[p] {
					a.finalTick[p] = e.Time
				}
			case trace.OpSyncRecv:
				a.consumed[p][syncKey{e.Peer, e.Aux}] = true
			case trace.OpJoined, trace.OpAdmit:
				a.hasJoin = true
			}
		}
	}
}

// checkClock verifies logical-clock monotonicity (+1 per Exchange, forward
// jumps only via Join) and the SYNC buffering rule: a SYNC is consumed only
// once the local clock has caught up to its stamp, and consumed stamps from
// one peer never regress.
func (a *analyzer) checkClock(p int) {
	prev := int64(0)
	floor := make(map[int32]int64) // peer → highest consumed SYNC stamp
	for _, e := range a.h.Procs[p] {
		switch e.Op {
		case trace.OpTick:
			if e.Time != prev+1 {
				a.fail("clock", p, e, "tick %d after tick %d (want +1)", e.Time, prev)
			}
			prev = e.Time
		case trace.OpJoined:
			if e.Time < prev {
				a.fail("clock", p, e, "join regressed clock to %d from %d", e.Time, prev)
			}
			prev = e.Time
		case trace.OpSyncRecv:
			if e.Aux > e.Time {
				a.fail("sync-buffering", p, e, "SYNC stamped %d consumed at tick %d (must buffer until clock catches up)", e.Aux, e.Time)
			}
			// Equal stamps are tolerated: a duplicated SYNC can
			// legitimately be re-consumed when the peer is not
			// outstanding. A lower stamp after a higher one means
			// out-of-order consumption.
			if f, ok := floor[e.Peer]; ok && e.Aux < f {
				a.fail("sync-buffering", p, e, "SYNC from %d stamped %d consumed after stamp %d", e.Peer, e.Aux, f)
			}
			if e.Aux > floor[e.Peer] {
				floor[e.Peer] = e.Aux
			}
		}
	}
}

// checkAdherence verifies exchange-list adherence: once a rendezvous with a
// peer is scheduled at tick T, the local clock must not pass T without the
// exchange completing (OpRendezvous reschedules it) unless the peer departed
// (DONE or eviction). The check is prefix-closed: a schedule still open when
// the history ends (crash, game over) is not a breach.
func (a *analyzer) checkAdherence(p int) {
	sched := make(map[int32]int64)
	var peers []int32 // deterministic iteration order
	set := func(peer int32, t int64) {
		if _, ok := sched[peer]; !ok {
			peers = append(peers, peer)
			sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
		}
		sched[peer] = t
	}
	for _, e := range a.h.Procs[p] {
		switch e.Op {
		case trace.OpSched, trace.OpAdmit:
			set(e.Peer, e.Aux)
		case trace.OpRendezvous:
			set(e.Peer, e.Aux)
		case trace.OpPeerDone, trace.OpEvict:
			delete(sched, e.Peer)
		case trace.OpTick:
			for _, peer := range peers {
				t, ok := sched[peer]
				if ok && t < e.Time {
					a.fail("xlist-adherence", p, e, "clock reached %d but rendezvous with %d was due at %d", e.Time, peer, t)
					delete(sched, peer) // report once
				}
			}
		}
	}
}

// checkPIDLocal verifies data-race arbitration within one process's history:
// versions per object never regress, and on a version tie the lower PID
// wins — an apply must come from a strictly lower PID than the current
// writer, and a tie-loss discard (OpStale aux=1) must not have discarded a
// lower-PID write. Tracked state is a lower bound on the real store when
// snapshots are in play (joins), which keeps the checks sound: the real
// version is never below the tracked one.
func (a *analyzer) checkPIDLocal(p int) {
	type ow struct {
		ver    int64
		writer int32 // -1 unknown
	}
	objs := make(map[int64]ow)
	for _, e := range a.h.Procs[p] {
		switch e.Op {
		case trace.OpJoined:
			// A mid-trace join is a crash-restart boundary: the process
			// resumed from a peer's snapshot, and any suffix of its previous
			// incarnation may have been rolled back. Tracked state from the
			// old life is no longer a lower bound, so it restarts here.
			objs = make(map[int64]ow)
		case trace.OpWrite:
			cur := objs[e.Obj]
			if cur.ver != 0 && e.Ver <= cur.ver {
				a.fail("pid-arbitration", p, e, "local write produced version %d not above %d", e.Ver, cur.ver)
			}
			objs[e.Obj] = ow{ver: e.Ver, writer: int32(p)}
		case trace.OpApply:
			cur, known := objs[e.Obj]
			if known {
				if e.Ver < cur.ver {
					a.fail("pid-arbitration", p, e, "applied version %d below current %d", e.Ver, cur.ver)
				} else if e.Ver == cur.ver && cur.writer >= 0 && e.Peer >= cur.writer {
					a.fail("pid-arbitration", p, e, "tie at version %d: applied write from PID %d over current writer %d (lower PID must win)", e.Ver, e.Peer, cur.writer)
				}
			}
			objs[e.Obj] = ow{ver: e.Ver, writer: e.Peer}
		case trace.OpAdopt:
			// A fetch reply adopted version-gated full state. The serving
			// peer is not the writer, so the writer becomes unknown and
			// later tie arbitration on this version is not checkable.
			if cur, known := objs[e.Obj]; !known || e.Ver >= cur.ver {
				objs[e.Obj] = ow{ver: e.Ver, writer: -1}
			}
		case trace.OpStale:
			cur, known := objs[e.Obj]
			if !known {
				continue
			}
			if e.Aux == 1 {
				// Tie-loss: discarding is only right if the sender's
				// PID is not below the current writer's.
				if e.Ver == cur.ver && cur.writer >= 0 && e.Peer < cur.writer {
					a.fail("pid-arbitration", p, e, "tie at version %d: discarded write from lower PID %d while writer is %d", e.Ver, e.Peer, cur.writer)
				}
			} else if !a.hasJoin && e.Ver >= cur.ver {
				// Old-version discard of a not-old version. Only
				// checkable without joins: a snapshot can raise the
				// real store above the tracked version.
				a.fail("pid-arbitration", p, e, "discarded version %d as stale but tracked version is %d", e.Ver, cur.ver)
			}
		}
	}
}

// minDistToTanks returns the minimum Manhattan distance from obj to any of
// the peer's tank positions at tick t; ok is false when no positions were
// recorded for that tick.
func (a *analyzer) minDistToTanks(obj int64, peer int, t int64) (int, bool) {
	if peer < 0 || peer >= len(a.tanks) {
		return 0, false
	}
	ps := a.tanks[peer][t]
	if len(ps) == 0 {
		return 0, false
	}
	ox, oy := a.opts.ObjPos(obj)
	best := -1
	for _, tp := range ps {
		d := absInt(tp[0]-ox) + absInt(tp[1]-oy)
		if best < 0 || d < best {
			best = d
		}
	}
	return best, true
}

// checkWithholding verifies the s-function's soundness side: an update may
// be withheld from a peer only when the object is outside the peer's
// interaction radius. The runtime withholds only above believed distance
// radius+3, and believed positions drift at most one cell per tick between
// rendezvous while both sides advance in lockstep around the shared
// exchange tick, so a withheld object is never within the true radius.
func (a *analyzer) checkWithholding(p int) {
	for _, e := range a.h.Procs[p] {
		if e.Op != trace.OpWithheld {
			continue
		}
		d, ok := a.minDistToTanks(e.Obj, int(e.Peer), e.Time)
		if !ok {
			continue // no ground-truth positions at that tick
		}
		if d <= a.opts.Radius {
			a.fail("spatial-withhold", p, e, "object %d withheld from %d at tick %d but its nearest tank is %d away (radius %d)", e.Obj, e.Peer, e.Time, d, a.opts.Radius)
		}
	}
}

// checkDeliveryBound verifies MSYNC2's relevance side: a DATA message to a
// peer must be justified by proximity. The filter approves a flush when the
// believed tank-to-tank distance is within the radius plus staleness slack,
// or — the correctness backstop — when the peer could be walking into the
// box of withheld writes. Believed positions drift at most one cell per
// tick since the last rendezvous, so an actual delivery is only legitimate
// when the peer's tanks are within radius + 3*sinceRendezvous + pad of ours,
// or within radius + 2*sinceRendezvous + pad of the bounding box of the
// objects the message carries (pad 8, doubled on lossy runs where delayed
// SYNCs widen the believed-position staleness).
func (a *analyzer) checkDeliveryBound(p int) {
	lastRend := make(map[int32]int64)
	fresh := make(map[int32]bool) // peer admitted since last rendezvous
	sent := make(map[int32][]int64)
	for _, e := range a.h.Procs[p] {
		switch e.Op {
		case trace.OpRendezvous:
			lastRend[e.Peer] = e.Time
			delete(fresh, e.Peer)
		case trace.OpAdmit:
			fresh[e.Peer] = true
		case trace.OpSendObj:
			sent[e.Peer] = append(sent[e.Peer], e.Obj)
		case trace.OpDataSend:
			objs := sent[e.Peer]
			sent[e.Peer] = nil
			if fresh[e.Peer] {
				continue // no believed position yet after a (re)join
			}
			since := e.Time - lastRend[e.Peer]
			if since < 0 {
				since = 0
			}
			pad := int64(8)
			if a.opts.Lossy {
				// Ambient delays can hold a SYNC in flight past the
				// rendezvous the trace records, so the believed position
				// the filter acted on can be staler than sinceRendezvous
				// by the fault plan's delay budget.
				pad = 16
			}
			tankBound := int64(a.opts.Radius) + 3*since + pad
			d, ok := a.pairDist(p, int(e.Peer), e.Time)
			if !ok || int64(d) <= tankBound {
				continue
			}
			boxBound := int64(a.opts.Radius) + 2*since + pad
			bd, bok := a.boxDist(objs, int(e.Peer), e.Time)
			if bok && int64(bd) <= boxBound {
				continue
			}
			a.fail("spatial-delivery", p, e, "DATA to %d stamped %d but tank distance %d exceeds relevance bound %d and box distance %d exceeds %d (radius %d, %d ticks since rendezvous)", e.Peer, e.Time, d, tankBound, bd, boxBound, a.opts.Radius, since)
		}
	}
}

// boxDist returns the minimum Manhattan distance from the peer's tanks at
// tick t to the bounding box of the given objects (the region the filter's
// box backstop guards); ok is false when either side is empty.
func (a *analyzer) boxDist(objs []int64, peer int, t int64) (int, bool) {
	if len(objs) == 0 || peer < 0 || peer >= len(a.tanks) {
		return 0, false
	}
	ps := a.tanks[peer][t]
	if len(ps) == 0 {
		return 0, false
	}
	minX, minY, maxX, maxY := 0, 0, 0, 0
	for i, obj := range objs {
		x, y := a.opts.ObjPos(obj)
		if i == 0 || x < minX {
			minX = x
		}
		if i == 0 || x > maxX {
			maxX = x
		}
		if i == 0 || y < minY {
			minY = y
		}
		if i == 0 || y > maxY {
			maxY = y
		}
	}
	best := -1
	for _, tp := range ps {
		d := 0
		if tp[0] < minX {
			d += minX - tp[0]
		} else if tp[0] > maxX {
			d += tp[0] - maxX
		}
		if tp[1] < minY {
			d += minY - tp[1]
		} else if tp[1] > maxY {
			d += tp[1] - maxY
		}
		if best < 0 || d < best {
			best = d
		}
	}
	return best, true
}

// pairDist returns the minimum Manhattan distance between p's and q's tanks
// at tick t; ok is false if either side has no recorded positions there.
func (a *analyzer) pairDist(p, q int, t int64) (int, bool) {
	if q < 0 || q >= len(a.tanks) {
		return 0, false
	}
	ps, qs := a.tanks[p][t], a.tanks[q][t]
	if len(ps) == 0 || len(qs) == 0 {
		return 0, false
	}
	best := -1
	for _, pp := range ps {
		for _, qq := range qs {
			d := absInt(pp[0]-qq[0]) + absInt(pp[1]-qq[1])
			if best < 0 || d < best {
				best = d
			}
		}
	}
	return best, true
}

// checkDelivery verifies exchange-list completeness on loss-free runs:
// every diff a process flushed toward a peer at a rendezvous the peer
// honoured must be reflected in that peer's final replica (its version
// there is at least the flushed version). The peer honoured the rendezvous
// iff it consumed the sender's SYNC of that tick — DATA precedes SYNC on
// the in-order link, so a consumed SYNC proves the diff arrived while the
// peer was alive to apply it. Flushes whose rendezvous the peer never
// completed (it finished or was evicted first, or the stamp was an
// end-of-game courtesy flush) carry no delivery obligation.
func (a *analyzer) checkDelivery() {
	for p, evs := range a.h.Procs {
		for _, e := range evs {
			if e.Op != trace.OpSendObj {
				continue
			}
			q := int(e.Peer)
			if q < 0 || q >= len(a.h.Stores) || a.h.Stores[q] == nil {
				continue
			}
			if len(a.h.Crashed) > q && a.h.Crashed[q] {
				continue
			}
			if !a.consumed[q][syncKey{int32(p), e.Time}] {
				continue // the peer never honoured this rendezvous
			}
			ver, err := a.h.Stores[q].Version(store.ID(e.Obj))
			if err != nil {
				continue
			}
			if ver < e.Ver {
				a.fail("delivery", q, e, "proc %d flushed object %d at version %d (stamp %d) but replica holds version %d", p, e.Obj, e.Ver, e.Time, ver)
			}
		}
	}
}

// checkInterestSafety verifies the interest-management visibility
// invariant: a player never misses an update for an object inside its
// sensing radius. For every write (p, obj, ver) and every other process
// q, the check finds the first tick at or after the write at which obj
// lies within q's radius; q's replica must then reflect a version at
// least ver within InterestSlack ticks — the budget covering the
// stretched rendezvous whose flush backstop delivers the withheld
// update, the only path that carries it. Obligations that outlive either
// process's history, or involve an eviction between the pair, are
// excused; joins disable the check entirely (snapshot catch-up bypasses
// the per-apply evidence, making the applied-version timeline a lower
// bound that would yield false violations).
func (a *analyzer) checkInterestSafety() {
	if a.hasJoin {
		return
	}
	slack := a.opts.InterestSlack
	if slack <= 0 {
		slack = DefaultInterestSlack
	}
	type verAt struct {
		t   int64
		ver int64
	}
	// verHist[q][obj] is the time-ordered prefix-max of versions q's
	// replica held (own writes, applied remote writes, and adopted delta
	// recovery replies).
	n := len(a.h.Procs)
	verHist := make([]map[int64][]verAt, n)
	for q, evs := range a.h.Procs {
		verHist[q] = make(map[int64][]verAt)
		for _, e := range evs {
			if e.Op != trace.OpWrite && e.Op != trace.OpApply && e.Op != trace.OpAdopt {
				continue
			}
			hist := verHist[q][e.Obj]
			if len(hist) > 0 && e.Ver <= hist[len(hist)-1].ver {
				continue // prefix-max: only version raises matter
			}
			verHist[q][e.Obj] = append(hist, verAt{t: e.Time, ver: e.Ver})
		}
	}
	// verBy returns the highest version q held of obj at any event time
	// <= t (histories are time-ordered, so the slice is sorted).
	verBy := func(q int, obj, t int64) int64 {
		best := int64(0)
		for _, va := range verHist[q][obj] {
			if va.t > t {
				break
			}
			best = va.ver
		}
		return best
	}
	for p, evs := range a.h.Procs {
		for _, e := range evs {
			if e.Op != trace.OpWrite {
				continue
			}
			for q := 0; q < n; q++ {
				if q == p {
					continue
				}
				if len(a.h.Crashed) > q && a.h.Crashed[q] {
					continue
				}
				if a.evicted(q, int32(p)) || a.evicted(p, int32(q)) {
					continue
				}
				// First tick at or after the write where obj is visible
				// to q.
				visible := int64(-1)
				for t := e.Time; t <= a.finalTick[q]; t++ {
					d, ok := a.minDistToTanks(e.Obj, q, t)
					if ok && d <= a.opts.Radius {
						visible = t
						break
					}
				}
				if visible < 0 {
					continue // never visible: no obligation
				}
				deadline := visible + slack
				if deadline > a.finalTick[q] {
					continue // the history ends inside the budget
				}
				if got := verBy(q, e.Obj, deadline); got < e.Ver {
					a.fail("interest-safety", q, e,
						"proc %d wrote object %d version %d at tick %d; visible to %d from tick %d but its replica held only version %d by tick %d (slack %d)",
						p, e.Obj, e.Ver, e.Time, q, visible, got, deadline, slack)
				}
			}
		}
	}
}

// evicted reports whether process q evicted peer at any point.
func (a *analyzer) evicted(q int, peer int32) bool {
	for _, e := range a.h.Procs[q] {
		if e.Op == trace.OpEvict && e.Peer == peer {
			return true
		}
	}
	return false
}

// checkPIDGlobal verifies race arbitration across replicas on loss-free
// runs: when several processes write the same version of an object, every
// surviving replica that settles on that version must credit the lowest
// competing PID whose write actually reached it in time.
func (a *analyzer) checkPIDGlobal() {
	type key struct {
		obj, ver int64
	}
	writers := make(map[key][]int)
	for p, evs := range a.h.Procs {
		for _, e := range evs {
			if e.Op == trace.OpWrite {
				k := key{e.Obj, e.Ver}
				writers[k] = append(writers[k], p)
			}
		}
	}
	for k, ws := range writers {
		if len(ws) < 2 {
			continue // no race
		}
		winner := ws[0]
		for _, w := range ws[1:] {
			if w < winner {
				winner = w
			}
		}
		for q, st := range a.h.Stores {
			if st == nil || (len(a.h.Crashed) > q && a.h.Crashed[q]) {
				continue
			}
			ver, err := st.Version(store.ID(k.obj))
			if err != nil || ver != k.ver {
				continue // replica moved past (or never reached) the race
			}
			w, err := st.WriterOf(store.ID(k.obj))
			if err != nil || w < 0 || w == winner {
				continue
			}
			if q == winner {
				// The winner's own replica credits someone else at the
				// same version: it applied an equal-version write over
				// its own, which the tie-break forbids outright.
				a.fail("pid-arbitration", q, trace.Event{Op: trace.OpWrite, Obj: k.obj, Ver: k.ver},
					"winner %d's replica credits PID %d at version %d", winner, w, k.ver)
				continue
			}
			if !a.reached(winner, q, k.obj, k.ver) {
				continue // the winning write never made it to q in time
			}
			a.fail("pid-arbitration", q, trace.Event{Op: trace.OpWrite, Obj: k.obj, Ver: k.ver},
				"replica settled on PID %d at version %d of object %d but PID %d also wrote it and is lower", w, k.ver, k.obj, winner)
		}
	}
}

// reached reports whether writer's flush of (obj, ver) toward q was part
// of a rendezvous q honoured (so the tie-break had the chance to fire).
func (a *analyzer) reached(writer, q int, obj, ver int64) bool {
	if a.evicted(q, int32(writer)) {
		return false
	}
	for _, e := range a.h.Procs[writer] {
		if e.Op == trace.OpSendObj && int(e.Peer) == q && e.Obj == obj && e.Ver >= ver &&
			a.consumed[q][syncKey{int32(writer), e.Time}] {
			return true
		}
	}
	return false
}

// checkConvergence asserts post-quiescence agreement: replicas holding the
// same (version, writer) of an object hold the same bytes. Replicas at
// different versions simply quiesced at different points of the same write
// history — the delivery check separately ensures nothing in-flight was
// silently lost on loss-free runs.
func (a *analyzer) checkConvergence() {
	var live []int
	for q, st := range a.h.Stores {
		if st == nil || (len(a.h.Crashed) > q && a.h.Crashed[q]) {
			continue
		}
		live = append(live, q)
	}
	if len(live) < 2 {
		return
	}
	for _, id := range a.h.Stores[live[0]].IDs() {
		for i, p := range live {
			pv, err := a.h.Stores[p].Version(id)
			if err != nil {
				continue
			}
			pw, _ := a.h.Stores[p].WriterOf(id)
			for _, q := range live[i+1:] {
				qv, err := a.h.Stores[q].Version(id)
				if err != nil || qv != pv {
					continue
				}
				qw, _ := a.h.Stores[q].WriterOf(id)
				if qw != pw {
					continue // a racing write; checkPIDGlobal arbitrates
				}
				pb, _ := a.h.Stores[p].Get(id)
				qb, _ := a.h.Stores[q].Get(id)
				if !bytesEqual(pb, qb) {
					a.fail("convergence", q, trace.Event{Obj: int64(id), Ver: pv},
						"object %d at version %d (writer %d) differs from proc %d's copy", id, pv, pw, p)
				}
			}
		}
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkLocksApp verifies the application side of entry consistency: lock
// requests within one tick are issued in ascending object order (the
// deadlock-avoidance total order), and every write happens under a held
// write lock.
func (a *analyzer) checkLocksApp(p int) {
	heldWrite := make(map[int64]bool)
	lastReq := int64(-1)
	for _, e := range a.h.Procs[p] {
		switch e.Op {
		case trace.OpTick:
			lastReq = -1
		case trace.OpLockReq:
			if e.Obj <= lastReq {
				a.fail("lock-order", p, e, "lock on object %d requested after object %d within one tick (must ascend)", e.Obj, lastReq)
			}
			lastReq = e.Obj
		case trace.OpLockGranted:
			if e.Aux == 1 {
				heldWrite[e.Obj] = true
			}
		case trace.OpLockRel:
			delete(heldWrite, e.Obj)
		case trace.OpWrite:
			if !heldWrite[e.Obj] {
				a.fail("lock-serialize", p, e, "write to object %d without a held write lock", e.Obj)
			}
		}
	}
}

// checkLocksMgr verifies the manager side: grants never overlap a write
// hold (a write grant excludes all other holders; a read grant excludes
// write holders), and the version carried per object never regresses.
// Both are strict only on loss-free runs — a lost release leaves a phantom
// holder behind, and retransmitted requests can be re-granted from state
// that predates an in-flight release.
func (a *analyzer) checkLocksMgr(p int) {
	type hold struct{ mode int64 }
	holders := make(map[int64]map[int32]hold)
	lastVer := make(map[int64]int64)
	for _, e := range a.h.Procs[p] {
		switch e.Op {
		case trace.OpMgrGrant:
			hs := holders[e.Obj]
			if hs == nil {
				hs = make(map[int32]hold)
				holders[e.Obj] = hs
			}
			if !a.opts.Lossy {
				for other, h := range hs {
					if other == e.Peer {
						continue // re-grant to the current holder
					}
					if e.Aux == 1 || h.mode == 1 {
						a.fail("lock-serialize", p, e, "granted object %d to %d (mode %d) while %d holds it (mode %d)", e.Obj, e.Peer, e.Aux, other, h.mode)
					}
				}
			}
			if !a.opts.Lossy && e.Ver < lastVer[e.Obj] {
				a.fail("lock-serialize", p, e, "grant carries version %d below the last released %d", e.Ver, lastVer[e.Obj])
			}
			hs[e.Peer] = hold{mode: e.Aux}
		case trace.OpMgrRelease:
			if hs := holders[e.Obj]; hs != nil {
				delete(hs, e.Peer)
			}
			if e.Aux == 1 && e.Ver > lastVer[e.Obj] {
				lastVer[e.Obj] = e.Ver
			}
		}
	}
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
