// Package ec implements the paper's entry consistency baseline (§2.3, §4):
//
//   - one lock per block object, managed by a lock manager; "the lock
//     managers are distributed evenly and statically amongst the processors
//     in the system" (object k's manager lives on node k mod n);
//   - a process acquires exclusive write-locks on the blocks it may modify
//     (its own block and the four adjacent ones) and shared read-locks on
//     the rest of its visibility set — range 1 means 5 locks per move,
//     range 3 means 13 locks of which 5 are write locks, as in §4;
//   - locks are acquired in ascending object-ID order, the paper's
//     total-order deadlock prevention for applications that lock multiple
//     objects simultaneously;
//   - acquiring a lock "pulls" the up-to-date copy from the owner of the
//     freshest version when the local replica is stale, and a dirty release
//     makes the releaser the new owner.
//
// Each game node runs two processes on the same (simulated) host: the
// application process, and a service process that plays lock manager for
// its share of the objects and serves object-pull requests against the
// node's replica. Both share a mutex-guarded node state.
package ec

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sdso/internal/game"
	"sdso/internal/lockmgr"
	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/trace"
	"sdso/internal/transport"
	"sdso/internal/wire"
)

// NodeConfig assembles one entry-consistency game node.
type NodeConfig struct {
	// Game is the shared application configuration.
	Game game.Config
	// App is the application process's endpoint; its ID in [0, teams) is
	// the team number.
	App transport.Endpoint
	// Svc is the service process's endpoint; its ID must be teams+team.
	Svc transport.Endpoint
	// Metrics receives the node's counters (nil allocates one).
	Metrics *metrics.Collector
	// ComputePerTick models per-iteration application work.
	ComputePerTick time.Duration
	// SuspectTimeout enables crash tolerance: a lock grant, object pull, or
	// ack that stays silent this long marks its source suspected, the
	// request is retransmitted under bounded exponential backoff, and after
	// MaxRetransmits strikes the silent process is declared crashed. The
	// declarer broadcasts KindCrash; every service purges the dead
	// process's locks, and the next live team (scanning up from the dead
	// manager's ID) adopts its lock-manager shard. A lock manager answers a
	// retransmitted request it is still queuing with KindLockBusy naming
	// the current holders, redirecting the requester's suspicion from the
	// live manager to a possibly-dead holder. Zero keeps the fail-free
	// blocking behavior.
	SuspectTimeout time.Duration
	// MaxRetransmits bounds retransmissions per suspicion episode; zero
	// means DefaultMaxRetransmits.
	MaxRetransmits int
	// Rejoin makes this node enter a game already in progress: the
	// application broadcasts KindJoinReq to every service, the node's
	// replica is rebuilt from the responders' KindSnapshot checkpoints, and
	// its lock-manager shard is restored from the adopter's exported
	// records (reversing the crash failover). Requires SuspectTimeout > 0.
	Rejoin bool
	// Incarnation distinguishes successive lives of this team's process ID
	// (used with Rejoin; 1 for a first restart). Crash declarations carry
	// the declarer's known incarnation so announcements that predate a
	// rejoin are recognized as stale and ignored.
	Incarnation int64
	// QuorumF, when > 0, turns each lock-manager shard into a quorum group
	// of 2f+1 services: every dirty release commits its ownership record
	// to f+1 group members before the release's grants go out, and a
	// crashed manager's successor reconstructs the shard's ownership from
	// any f+1 members instead of restarting at version 0 (see quorum.go).
	// Requires SuspectTimeout > 0; zero keeps the unreplicated behavior
	// with no extra messages.
	QuorumF int

	// AppTrace and SvcTrace, when set, record the application's and the
	// service's observation histories (ticks, lock requests/grants/releases,
	// writes) for the consistency oracle in internal/check. Nil disables
	// tracing. Each recorder is appended to only from its own process's
	// goroutine.
	AppTrace *trace.Recorder
	SvcTrace *trace.Recorder
}

// DefaultMaxRetransmits is the eviction threshold used when
// NodeConfig.MaxRetransmits is zero.
const DefaultMaxRetransmits = 3

// Node is one EC participant: an application process and a co-located
// service process sharing a replica and a lock-manager shard.
type Node struct {
	cfg   NodeConfig
	team  int
	teams int
	mc    *metrics.Collector

	mu  sync.Mutex // guards st and mgr (app and svc touch both)
	st  *store.Store
	mgr *lockmgr.Manager

	turn     game.Team
	gameOver bool

	// dirty holds the versions the tick's writes produced, for its
	// releases.
	dirty map[store.ID]int64
	// Ints of the messages the application and the service send, each side
	// carving from its own chunk since the two run concurrently.
	appInts, svcInts wire.IntsChunk

	// crashed marks teams declared crashed (guarded by mu; the app and
	// service processes of a node converge on it independently).
	crashed map[int]bool
	// inc records the highest incarnation seen per team (guarded by mu).
	// Crash declarations carrying an older incarnation are stale — they
	// predate a rejoin — and are ignored.
	inc map[int]int64
	// over mirrors the game-over announcement under mu so the service can
	// report it to joiners (gameOver itself is application-side state).
	over bool

	// inflight holds, per base manager whose shard is in flight to this
	// service, the lock traffic stalled until the shard lands (DESIGN.md
	// §8): our own shard from New until a rejoin's handbacks are in, a dead
	// manager's while its ownership is rebuilt from the quorum (guarded by
	// mu; nil unless one of the two can happen).
	inflight map[int][]*wire.Msg

	// Rejoin state (guarded by mu): the handback records each team has
	// acked with, and the teams whose checkpoint has been merged. handback
	// caches the records exported per joining team so a retransmitted join
	// request resends the same payload (a second Export would find
	// nothing).
	joinRecs    map[int][]lockmgr.Record
	joinSnapped map[int]bool
	handback    map[int][]byte

	// Quorum replication state (guarded by mu; allocated when QuorumF > 0,
	// see quorum.go). qseq numbers replication and reconstruction rounds;
	// qrep is this service's backup copy of ownership records; qpend holds
	// rounds awaiting backup acks; qAdopt in-progress reconstructions;
	// qAdopted the dead teams whose shards were already reconstructed.
	qseq     int64
	qrep     map[store.ID]qOwnerRec
	qpend    map[int64]*qPending
	qAdopt   map[int]*qAdoptState
	qAdopted map[int]bool
}

// New validates the configuration and builds a node. The caller runs
// RunService and RunApp on separate goroutines (or simulated processes).
func New(cfg NodeConfig) (*Node, error) {
	if cfg.App == nil || cfg.Svc == nil {
		return nil, errors.New("ec: config requires app and svc endpoints")
	}
	teams := cfg.Game.Teams
	if cfg.App.ID() >= teams || cfg.Svc.ID() != teams+cfg.App.ID() {
		return nil, fmt.Errorf("ec: endpoint ids app=%d svc=%d invalid for %d teams",
			cfg.App.ID(), cfg.Svc.ID(), teams)
	}
	if cfg.Rejoin && cfg.SuspectTimeout <= 0 {
		return nil, errors.New("ec: rejoin requires SuspectTimeout (failure detection)")
	}
	if cfg.QuorumF > 0 && cfg.SuspectTimeout <= 0 {
		return nil, errors.New("ec: quorum replication requires SuspectTimeout (it exists for failover)")
	}
	mc := cfg.Metrics
	if mc == nil {
		mc = metrics.NewCollector()
	}
	n := &Node{
		cfg: cfg, team: cfg.App.ID(), teams: teams, mc: mc,
		crashed: make(map[int]bool), inc: make(map[int]int64),
		dirty: make(map[store.ID]int64),
	}
	if cfg.Incarnation > 0 {
		n.inc[n.team] = cfg.Incarnation
	}
	if cfg.QuorumF > 0 {
		n.inflight = make(map[int][]*wire.Msg)
		n.qrep = make(map[store.ID]qOwnerRec)
		n.qpend = make(map[int64]*qPending)
		n.qAdopt = make(map[int]*qAdoptState)
		n.qAdopted = make(map[int]bool)
	}

	turn, start, err := game.NewTeam(&n.cfg.Game, n.team)
	if err != nil {
		return nil, err
	}
	n.turn = turn
	if cfg.Rejoin {
		// The world and the tank roster come from peer checkpoints; the
		// lock-manager shard comes back via the join handback.
		n.st = store.New()
		n.mgr = lockmgr.New(nil, nil)
		n.inflight = map[int][]*wire.Msg{n.team: nil}
		n.joinRecs = make(map[int][]lockmgr.Record)
		n.joinSnapped = make(map[int]bool)
	} else {
		n.st = start.NewStore()
		// This node manages the locks for its static shard of the objects.
		n.mgr = lockmgr.New(n.shardOf(n.team), nil)
	}
	n.turn.Replica = n.st
	return n, nil
}

// shardOf returns the objects whose lock manager statically lives on team.
func (n *Node) shardOf(team int) []store.ID {
	out := make([]store.ID, 0, n.cfg.Game.NumObjects()/n.teams+1)
	for i := 0; i < n.cfg.Game.NumObjects(); i++ {
		if lockmgr.ManagerFor(store.ID(i), n.teams) == team {
			out = append(out, store.ID(i))
		}
	}
	return out
}

// Stats returns the team's final stats (valid after RunApp returns).
func (n *Node) Stats() game.TeamStats { return n.turn.Stats }

// Store exposes the node's replica (for test assertions).
func (n *Node) Store() *store.Store {
	return n.st
}

// svcID returns the service endpoint ID for a team.
func (n *Node) svcID(team int) int { return n.teams + team }

// send gives away a message shaped like t (DESIGN.md §15, the message
// rule): the struct comes from the wire pool, t's Payload is copied into the
// struct's own buffer and t's Ints are shared. A sender that must resend
// keeps t, a value, and sends it again.
func (n *Node) send(ep transport.Endpoint, to int, t wire.Msg) error {
	m := wire.GetMsgOf(t)
	n.mc.CountSend(m, m.EncodedSize())
	if err := ep.Send(to, m); err != nil {
		return err
	}
	// EC is request/response shaped: nearly every send immediately precedes
	// a block on Recv, so on transports with deferred flushing the frame
	// must go out now — there is no exchange-round barrier to ride.
	return transport.Flush(ep)
}

// recycle hands a consumed message back to ep's free-list. Join traffic is
// rare and a snapshot is the size of a world, so it is left to the garbage
// collector rather than pooled for the next small message.
func recycle(ep transport.Endpoint, m *wire.Msg) {
	if k := m.Kind; k != wire.KindJoinReq && k != wire.KindJoinAck && k != wire.KindSnapshot {
		transport.Recycle(ep, m)
	}
}

// ft reports whether crash tolerance is enabled.
func (n *Node) ft() bool { return n.cfg.SuspectTimeout > 0 }

func (n *Node) maxRetransmits() int {
	if n.cfg.MaxRetransmits > 0 {
		return n.cfg.MaxRetransmits
	}
	return DefaultMaxRetransmits
}

func (n *Node) isCrashed(team int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[team]
}

// noteGameOver records a winner's announcement: gameOver is the
// application-side copy, over the mu-guarded mirror the service reports to
// joiners.
func (n *Node) noteGameOver() {
	n.gameOver = true
	n.mu.Lock()
	n.over = true
	n.mu.Unlock()
}

// crashInc extracts the declarer's known incarnation from a KindCrash
// announcement (0 for declarations predating any rejoin).
func crashInc(m *wire.Msg) int64 {
	if len(m.Ints) > 0 {
		return m.Ints[0]
	}
	return 0
}

// lockProc returns the process a lock request or release acts for: normally
// the sender, but forwarded traffic (re-routed by a manager whose requester
// held a stale crash view) carries the original requester in Stamp+1.
func lockProc(m *wire.Msg) int {
	if m.Stamp > 0 {
		return int(m.Stamp) - 1
	}
	return int(m.Src)
}

// noteCrash records a crash learned from a KindCrash announcement; reports
// whether it was news. A declaration carrying an incarnation older than the
// team's current one predates a rejoin and is ignored.
func (n *Node) noteCrash(team int, inc int64) bool {
	if team < 0 || team >= n.teams || team == n.team {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if inc < n.inc[team] || n.crashed[team] {
		return false
	}
	n.crashed[team] = true
	return true
}

// declareCrash is the detection side: mark team crashed, count the
// eviction, and broadcast KindCrash to every live application and every
// service process (including our own, which purges the dead team's locks
// and adopts its manager shard if it is the successor). Broadcasting before
// any failed-over request is sent matters: per-pair FIFO then guarantees a
// successor manager processes the crash (and adopts the shard) before it
// sees redirected lock traffic from this node. The announcement carries the
// dead team's incarnation as known here, so receivers that have since
// admitted a newer life of the team recognize the declaration as stale.
func (n *Node) declareCrash(team int) {
	crash := n.crashNews(team)
	if !n.noteCrash(team, crash.Ints[0]) {
		return
	}
	n.mc.Add(metrics.Evictions, 1)
	for t := 0; t < n.teams; t++ {
		if t == team {
			continue
		}
		if t != n.team && !n.isCrashed(t) {
			_ = n.send(n.cfg.App, t, crash)
		}
		_ = n.send(n.cfg.App, n.svcID(t), crash)
	}
}

// reannounceCrash repeats the KindCrash declaration for an already-buried
// team to one manager service. The original broadcast is sent exactly once
// (declareCrash drops repeat declarations), so a manager whose copy was
// lost would keep serving the dead team's locks forever; the requester that
// notices — its KindLockBusy replies name only holders it knows are dead —
// replays the announcement to that manager alone.
func (n *Node) reannounceCrash(dead, mgrTeam int) {
	_ = n.send(n.cfg.App, n.svcID(mgrTeam), n.crashNews(dead))
}

// crashNews is the KindCrash announcement of team, carrying its incarnation
// as known here.
func (n *Node) crashNews(team int) wire.Msg {
	n.mu.Lock()
	defer n.mu.Unlock()
	return wire.Msg{Kind: wire.KindCrash, Stamp: int64(team), Ints: []int64{n.inc[team]}}
}

// managerFor returns the team currently managing obj's lock: its static
// base manager or, under crash tolerance, the base's successor.
func (n *Node) managerFor(obj store.ID) int {
	base := lockmgr.ManagerFor(obj, n.teams)
	if !n.ft() {
		return base
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.successor(base)
}

// successor is the one successor rule (callers hold n.mu): base's shard is
// managed by base or, after its crash, by the next live team scanning up
// from it. Every process computes it from its own crashed set; the
// KindCrash broadcast keeps the sets converging.
func (n *Node) successor(base int) int {
	for i := range n.teams {
		if t := (base + i) % n.teams; !n.crashed[t] {
			return t
		}
	}
	return n.team
}

// adoptShards makes this node's manager adopt the shard of every crashed
// base manager whose successor it now is. Idempotent; called by the
// service loop after each crash announcement (covers cascaded crashes: if
// an adopter dies too, the next successor re-adopts the whole chain).
func (n *Node) adoptShards() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for dead := range n.teams {
		if n.crashed[dead] && n.successor(dead) == n.team {
			n.mgr.Adopt(n.shardOf(dead), n.team)
		}
	}
}

// routeLock decides where a lock request or release for obj is served; it
// returns the team to forward it to, or -1 to serve it here. Normally the
// object is managed here, or is our own shard. Otherwise the sender
// redirected traffic here believing every team from the object's static
// base manager up to this node has crashed. Either some team in that chain
// is live by our (fresher) view — typically a rejoined manager whose
// return the sender has not yet processed — and the message goes on to the
// first live one, so it is served by the real manager and the grant goes
// straight to the original requester; or the whole chain really is
// crashed, the routing itself carries crash news (a KindCrash announcement
// lost in transit), and we adopt the implied shard chain and serve.
func (n *Node) routeLock(m *wire.Msg) (forward int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	obj := store.ID(m.Obj)
	base := lockmgr.ManagerFor(obj, n.teams)
	if n.mgr.Manages(obj) || base == n.team {
		return -1
	}
	for t := base; t != n.team; t = (t + 1) % n.teams {
		if !n.crashed[t] {
			return t
		}
	}
	for t := base; t != n.team; t = (t + 1) % n.teams {
		n.mgr.Adopt(n.shardOf(t), n.team)
	}
	return -1
}

// stall parks lock traffic whose object's shard is in flight to this
// service (DESIGN.md §8), until land replays it; it reports whether m was
// parked. Serving from a shard still in flight could double-grant a lock
// whose true holder is in an outstanding handback, or name a version-0
// owner the quorum would have corrected.
func (n *Node) stall(m *wire.Msg) bool {
	base := lockmgr.ManagerFor(store.ID(m.Obj), n.teams)
	n.mu.Lock()
	defer n.mu.Unlock()
	stalled, ok := n.inflight[base]
	if ok {
		n.inflight[base] = append(stalled, m)
	}
	return ok
}

// rejoining reports whether this node's own shard is still in flight.
func (n *Node) rejoining() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.inflight[n.team]
	return ok
}

// land installs base's in-flight shard once all of it is in, then replays
// the lock traffic that stalled behind it. Our own shard lands when every
// live team has delivered its join ack and checkpoint: the handback records
// first (they carry live holders, queues and ownership), then a fresh adopt
// of whatever remains. A dead manager's shard lands when f+1 members of
// its quorum group have contributed (restoreOwners, quorum.go).
func (n *Node) land(base int) error {
	n.mu.Lock()
	stalled, ok := n.inflight[base]
	if !ok || (base == n.team && len(n.unansweredLocked()) > 0) || (base != n.team && !n.reconDone(base)) {
		n.mu.Unlock()
		return nil
	}
	delete(n.inflight, base)
	if base == n.team {
		for t := range n.teams {
			if recs := n.joinRecs[t]; len(recs) > 0 {
				n.mgr.Readmit(recs)
			}
		}
		n.mgr.Adopt(n.shardOf(n.team), n.team)
	} else {
		n.restoreOwners(base)
	}
	n.mu.Unlock()
	for _, m := range stalled {
		if err := n.serveLock(m); err != nil {
			return err
		}
		recycle(n.cfg.Svc, m)
	}
	return nil
}

// RunService processes lock and object-pull traffic until every
// application process has announced shutdown or been declared crashed.
// Under crash tolerance the service never counts its own co-located
// application as crashed (it is demonstrably alive), and once that
// application has shut down, prolonged total silence lets the service exit
// rather than deadlock on shutdown or crash announcements lost in transit.
// A message is recycled at the bottom of the loop once handled; a stalled
// one continues past that point.
func (n *Node) RunService() error {
	svc := n.cfg.Svc
	out := make(map[int]bool, n.teams) // teams shut down or buried
	for len(out) < n.teams {
		w := waiter{site: serviceWait, ep: svc, idle: out[n.team]}
		m, err := n.await(&w)
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return fmt.Errorf("ec service %d: %w", n.team, err)
		}
		if m == nil {
			return nil
		}
		switch m.Kind {
		case wire.KindLockReq, wire.KindLockRelease:
			if !n.ft() {
				err = n.serveLock(m)
			} else if to := n.routeLock(m); to >= 0 {
				err = n.forwardLock(m, to)
			} else if err = n.startAdoptRecon(); err == nil {
				// routeLock may have just chain-adopted a dead manager's
				// shard: in quorum mode the ownership must be reconstructed
				// from the group before any of its locks are served.
				if n.stall(m) {
					continue
				}
				err = n.serveLock(m)
			}
		case wire.KindObjReq:
			n.mu.Lock()
			state, errGet := n.st.View(store.ID(m.Obj)) // published: immutable
			ver, _ := n.st.Version(store.ID(m.Obj))
			n.mu.Unlock()
			if errGet != nil {
				return fmt.Errorf("ec service %d: serve obj %d: %w", n.team, m.Obj, errGet)
			}
			err = n.send(svc, int(m.Src), wire.Msg{
				Kind: wire.KindObjReply, Obj: m.Obj, Stamp: m.Stamp,
				Ints: n.svcInts.Carve(ver), Payload: state,
			})
		case wire.KindShutdown:
			out[int(m.Stamp)] = true
		case wire.KindCrash:
			err = n.handleCrash(int(m.Stamp), crashInc(m), out)
		case wire.KindQWrite:
			err = n.handleQWrite(m)
		case wire.KindQWriteAck:
			err = n.handleQWriteAck(m)
		case wire.KindQRead:
			err = n.handleQRead(m)
		case wire.KindQReadAck:
			err = n.handleQReadAck(m)
		case wire.KindJoinReq:
			err = n.serveJoin(m, out)
		case wire.KindJoinAck, wire.KindSnapshot:
			err = n.acceptJoin(m, out)
		}
		if err != nil {
			return err
		}
		recycle(svc, m)
	}
	return nil
}

// handleCrash serves a crash declaration of dead: stop waiting for the
// dead team's shutdown, free every lock it held or queued for (granting
// unblocked waiters), and adopt its manager shard if this node is now the
// successor.
func (n *Node) handleCrash(dead int, inc int64, out map[int]bool) error {
	if dead == n.team {
		// A false declaration about our own co-located (and demonstrably
		// alive) application: purging its locks or abandoning its shutdown
		// would orphan it.
		return nil
	}
	if !n.noteCrash(dead, inc) && !n.isCrashed(dead) {
		return nil // stale declaration: the team has since rejoined
	}
	out[dead] = true
	n.mu.Lock()
	grants := n.mgr.PurgeProc(dead)
	n.mu.Unlock()
	if err := n.sendGrants(grants); err != nil {
		return err
	}
	n.adoptShards()
	if err := n.qPurgeDead(dead); err != nil {
		return err
	}
	if err := n.startAdoptRecon(); err != nil {
		return err
	}
	return n.land(n.team)
}

// serveLock serves a lock request or release at this manager.
func (n *Node) serveLock(m *wire.Msg) error {
	if m.Kind == wire.KindLockReq {
		return n.handleLockReq(m)
	}
	return n.handleLockRelease(m)
}

// handleLockReq serves one lock request at this manager. A retransmitted
// request (ErrDoubleLock) is answered idempotently: the grant is reissued
// if the requester already holds the lock, or KindLockBusy names the
// current holders so the requester blames a possibly-dead holder instead
// of this (live) manager.
func (n *Node) handleLockReq(m *wire.Msg) error {
	svc := n.cfg.Svc
	proc := lockProc(m)
	mode := lockmgr.Read
	if m.Mode == wire.ModeWrite {
		mode = lockmgr.Write
	}
	n.mu.Lock()
	grants, err := n.mgr.Acquire(lockmgr.Request{Proc: proc, Obj: store.ID(m.Obj), Mode: mode})
	if n.ft() && errors.Is(err, lockmgr.ErrDoubleLock) {
		err = nil
		if g, ok := n.mgr.Reissue(proc, store.ID(m.Obj)); ok {
			grants = []lockmgr.Grant{g}
		} else {
			holders, _, _ := n.mgr.Holders(store.ID(m.Obj))
			ints := make([]int64, len(holders))
			for i, h := range holders {
				ints[i] = int64(h)
			}
			busy := wire.Msg{Kind: wire.KindLockBusy, Obj: m.Obj, Ints: ints}
			n.mu.Unlock()
			if err := n.send(svc, proc, busy); err != nil {
				return fmt.Errorf("ec service %d: lock-busy to %d: %w", n.team, proc, err)
			}
			return nil
		}
	}
	n.mu.Unlock()
	if err != nil {
		return fmt.Errorf("ec service %d: acquire obj %d for %d: %w", n.team, m.Obj, proc, err)
	}
	return n.sendGrants(grants)
}

// handleLockRelease serves one lock release at this manager.
func (n *Node) handleLockRelease(m *wire.Msg) error {
	proc := lockProc(m)
	dirty := len(m.Ints) >= 2 && m.Ints[0] == 1
	var version int64
	if dirty {
		version = m.Ints[1]
	}
	var dirtyAux int64
	if dirty {
		dirtyAux = 1
	}
	n.cfg.SvcTrace.Record(trace.OpMgrRelease, proc, int64(m.Obj), version, 0, dirtyAux)
	n.mu.Lock()
	grants, err := n.mgr.Release(proc, store.ID(m.Obj), dirty, version)
	n.mu.Unlock()
	if n.ft() && errors.Is(err, lockmgr.ErrNotHeld) {
		// Releases of locks granted by a manager that has since
		// crashed land on the adopter, which never saw the grant.
		// The holder state died with the old manager: tolerate.
		err = nil
	}
	if err != nil {
		return fmt.Errorf("ec service %d: release obj %d by %d: %w", n.team, m.Obj, proc, err)
	}
	if n.qf() > 0 && dirty {
		// The new ownership must survive this manager's crash: commit it
		// to the quorum group before the unblocked grants go out.
		return n.replicateOwner(store.ID(m.Obj), proc, version, grants)
	}
	return n.sendGrants(grants)
}

// forwardLock sends a misrouted lock message on to the team that actually
// manages the object, tagging it with the original requester (the grant or
// busy reply then goes straight back to them). A forward to a team that
// died in the meantime is dropped: the requester's own retransmission will
// re-route once the crash news reaches it.
func (n *Node) forwardLock(m *wire.Msg, to int) error {
	m.Stamp = int64(lockProc(m)) + 1
	_, err := n.sendTo(n.cfg.Svc, n.svcID(to), *m, true)
	return err
}

func (n *Node) sendGrants(grants []lockmgr.Grant) error {
	for _, g := range grants {
		mode := wire.ModeRead
		var modeAux int64
		if g.Mode == lockmgr.Write {
			mode = wire.ModeWrite
			modeAux = 1
		}
		n.cfg.SvcTrace.Record(trace.OpMgrGrant, g.Proc, int64(g.Obj), g.Version, 0, modeAux)
		m := wire.Msg{
			Kind: wire.KindLockGrant, Obj: uint32(g.Obj), Mode: mode,
			Ints: n.svcInts.Carve(int64(g.Owner), g.Version),
		}
		if err := n.send(n.cfg.Svc, g.Proc, m); err != nil {
			return fmt.Errorf("ec service %d: send grant: %w", n.team, err)
		}
	}
	return nil
}

// serveJoin is the survivor half of the rejoin handshake, run in the
// service loop: clear the joiner's crashed mark, record its incarnation,
// export the part of its lock-manager shard adopted here (reversing the
// crash failover), and answer with a KindJoinAck — game-over flag, crashed
// set, and the exported records — plus a KindSnapshot of the replica. The
// export is cached per team: a retransmitted join request gets the same
// records back (a second Export would find nothing), plus a fresh snapshot.
func (n *Node) serveJoin(m *wire.Msg, out map[int]bool) error {
	t := int(m.Src)
	if t < 0 || t >= n.teams || t == n.team {
		return nil
	}
	inc := m.Stamp
	n.mu.Lock()
	if inc < n.inc[t] {
		n.mu.Unlock()
		return nil // a request from a previous life, long superseded
	}
	fresh := inc > n.inc[t] || n.handback[t] == nil
	n.inc[t] = inc
	delete(n.crashed, t)
	delete(n.qAdopted, t) // a future crash of the rejoined team reconstructs afresh
	if fresh {
		recs := n.mgr.Export(n.shardOf(t))
		if n.handback == nil {
			n.handback = make(map[int][]byte)
		}
		n.handback[t] = lockmgr.EncodeRecords(recs)
	}
	payload := n.handback[t]
	over := int64(0)
	if n.over {
		over = 1
	}
	ints := []int64{over}
	for c := 0; c < n.teams; c++ {
		if n.crashed[c] {
			ints = append(ints, int64(c))
		}
	}
	snap := n.st.Snapshot(0)
	n.mu.Unlock()
	delete(out, t) // if the joiner was counted out, wait for its shutdown again
	if fresh {
		n.mc.Add(metrics.Joins, 1)
	}
	ack := wire.Msg{Kind: wire.KindJoinAck, Stamp: inc, Ints: ints, Payload: payload}
	if gone, err := n.sendTo(n.cfg.Svc, n.svcID(t), ack, false); gone || err != nil {
		return err
	}
	n.mc.Add(metrics.SnapshotBytes, len(snap))
	_, err := n.sendTo(n.cfg.Svc, n.svcID(t), wire.Msg{Kind: wire.KindSnapshot, Payload: snap}, false)
	return err
}

// acceptJoin is the joiner half, run in the rejoining node's service loop.
// A responder's KindJoinAck brings its handback records and its view of the
// game (game-over flag, crashed set). Its KindSnapshot is merged into the
// replica version-gated: merging every responder's checkpoint makes the
// union capture every surviving write, whichever replica holds the freshest
// copy of each object. A corrupt one is dropped (the app's retransmit
// fetches another); otherwise the rejoin may now land.
func (n *Node) acceptJoin(m *wire.Msg, out map[int]bool) error {
	from := int(m.Src) - n.teams
	if !n.cfg.Rejoin || from < 0 || from >= n.teams || from == n.team {
		return nil
	}
	n.mu.Lock()
	var adopted int
	var recs []lockmgr.Record
	var err error
	if m.Kind == wire.KindSnapshot {
		if adopted, _, err = n.st.Merge(m.Payload); err == nil {
			n.joinSnapped[from] = true
		}
	} else if recs, err = lockmgr.DecodeRecords(m.Payload); err == nil {
		n.joinRecs[from] = recs
		delete(n.crashed, from) // the responder is demonstrably alive
		delete(n.qAdopted, from)
		n.over = n.over || m.Ints[0] == 1 // shaped: the game-over flag
		for _, c := range m.Ints[1:] {
			if t := int(c); t >= 0 && t < n.teams && t != n.team && t != from && !n.crashed[t] {
				n.crashed[t] = true
				out[t] = true
			}
		}
	}
	n.mu.Unlock()
	if err != nil {
		return nil
	}
	n.mc.Add(metrics.CatchupDiffs, adopted)
	return n.land(n.team)
}

// RunApp executes the team's game loop to completion.
func (n *Node) RunApp() (game.TeamStats, error) {
	app := n.cfg.App
	defer func() {
		n.mc.SetExecTime(app.Now())
	}()

	if n.cfg.Rejoin {
		if err := n.runJoin(); err != nil {
			return n.turn.Stats, err
		}
	}

	for tick := 1; tick <= n.cfg.Game.MaxTicks; tick++ {
		if n.cfg.Game.EndOnFirstGoal {
			// Drain queued winner announcements before paying for locks.
			n.pollApp()
			if n.gameOver {
				n.turn.Stats.DoneTick = int64(tick)
				break
			}
		}
		n.cfg.AppTrace.Record(trace.OpTick, -1, 0, 0, int64(tick), 0)
		// Write locks on the blocks a tank may modify, read locks on the
		// rest of what it sees.
		locks := n.turn.AccessSet(n.cfg.Game.Range)
		if err := n.acquireAll(locks); err != nil {
			return n.turn.Stats, err
		}

		appStart := app.Now()
		n.mu.Lock()
		playing := n.turn.Begin(int64(tick))
		if playing {
			clear(n.dirty)
			// Enemy positions come from the locked visibility cells (EC has
			// no beacons; the locks themselves guarantee freshness).
			enemies := make(map[int][]game.Pos)
			n.turn.ScanRays(enemies, n.cfg.Game.Range)
			if n.turn.Credit(n.turn.Turn(enemies, n.write)) {
				n.mc.Add(metrics.Mods, 1)
			}
			n.mc.Add(metrics.Ticks, 1)
		}
		n.mu.Unlock()
		if !playing {
			n.releaseAll(locks, nil)
			break
		}
		n.mc.AddTime(metrics.CatAppCompute, app.Now()-appStart)
		if n.cfg.ComputePerTick > 0 {
			app.Compute(n.cfg.ComputePerTick)
			n.mc.AddTime(metrics.CatAppCompute, n.cfg.ComputePerTick)
		}

		n.releaseAll(locks, n.dirty)

		if n.turn.Won(int64(tick)) {
			break
		}
	}
	n.turn.Horizon(int64(n.turn.Stats.Ticks), false) // the locks are released: the replica may be stale

	// In a first-to-goal game the winner tells every application the race
	// is over.
	if n.cfg.Game.EndOnFirstGoal && n.turn.Stats.ReachedGoal {
		n.noteGameOver() // late joiners asking after this learn it from acks
		for team := 0; team < n.teams; team++ {
			if team == n.team || (n.ft() && n.isCrashed(team)) {
				continue
			}
			if _, err := n.sendTo(app, team, wire.Msg{Kind: wire.KindDone, Mode: 1, Stamp: int64(n.team)}, true); err != nil {
				return n.turn.Stats, err
			}
		}
	}

	// Tell every service process (including our own) that this
	// application is finished. Crashed nodes' services are skipped (their
	// survivors already counted us out via KindCrash if needed).
	for team := 0; team < n.teams; team++ {
		if n.ft() && n.isCrashed(team) {
			continue
		}
		if _, err := n.sendTo(app, n.svcID(team), wire.Msg{Kind: wire.KindShutdown, Stamp: int64(n.team)}, false); err != nil {
			return n.turn.Stats, err
		}
	}
	return n.turn.Stats, nil
}

// runJoin is the application half of a rejoin: broadcast KindJoinReq to
// every other team's service, then wait — retransmitting under backoff —
// until every team has either delivered its ack and checkpoint (tracked by
// our own service) or been declared crashed. The service restores the
// replica and the lock shard; here we only drive retransmission and then
// recover the tank roster from the merged world. Tanks destroyed while the
// process was away are simply absent from the board.
func (n *Node) runJoin() error {
	app := n.cfg.App
	w := waiter{site: joinWait, ep: app, req: wire.Msg{Kind: wire.KindJoinReq, Stamp: n.cfg.Incarnation}}
	for t := range n.teams {
		if t == n.team {
			continue
		}
		if _, err := n.sendTo(app, n.svcID(t), w.req, true); err != nil {
			return err
		}
	}
	if _, err := n.await(&w); err != nil {
		return err
	}
	// The service lands our shard once every handback and checkpoint is in
	// (the burials above reach it as KindCrash); wait for that so the world
	// below is complete.
	w = waiter{site: landWait, ep: app}
	if _, err := n.await(&w); err != nil {
		return err
	}
	n.mu.Lock()
	acks := len(n.joinRecs)
	if n.over {
		n.gameOver = true
	}
	var world *game.World
	var err error
	if acks > 0 {
		world, err = game.DecodeWorld(n.cfg.Game, n.st)
	}
	n.mu.Unlock()
	if acks == 0 {
		return fmt.Errorf("ec app %d: rejoin found no live peers", n.team)
	}
	if err != nil {
		return fmt.Errorf("ec app %d: decode joined world: %w", n.team, err)
	}
	n.turn.Place(world.TanksByTeam()[n.team])
	n.mc.Add(metrics.Joins, 1)
	return nil
}

// unanswered returns the live teams whose join ack or checkpoint has not
// reached our service yet.
func (n *Node) unanswered() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.unansweredLocked()
}

// unansweredLocked is unanswered for callers that hold n.mu.
func (n *Node) unansweredLocked() []int {
	var out []int
	for t := range n.teams {
		if _, acked := n.joinRecs[t]; t != n.team && !n.crashed[t] && !(acked && n.joinSnapped[t]) {
			out = append(out, t)
		}
	}
	return out
}

// noteAppMsg consumes application-endpoint traffic other than the reply
// being awaited: winner announcements and crash declarations are noted,
// anything else (a duplicate, say) is dropped. Either way it is recycled.
func (n *Node) noteAppMsg(m *wire.Msg) {
	switch m.Kind {
	case wire.KindDone:
		n.noteGameOver()
	case wire.KindCrash:
		n.noteCrash(int(m.Stamp), crashInc(m))
	}
	recycle(n.cfg.App, m)
}

// pollApp drains queued application-endpoint traffic without blocking
// (between iterations the only expected messages are winner announcements).
func (n *Node) pollApp() {
	for {
		m, ok, err := n.cfg.App.TryRecv()
		if err != nil || !ok {
			return
		}
		n.noteAppMsg(m)
	}
}

// acquireAll acquires the lock set in order, pulling fresh copies as grants
// reveal newer versions elsewhere.
func (n *Node) acquireAll(locks []game.Access) error {
	for _, lr := range locks {
		if err := n.acquireOne(lr); err != nil {
			return err
		}
	}
	return nil
}

// acquireOne acquires one lock, failing over to the successor manager and
// burying dead holders when crash tolerance is on, and pulls the object's
// fresh copy when the grant names a newer one elsewhere.
func (n *Node) acquireOne(lr game.Access) error {
	app := n.cfg.App
	mode, modeAux := wire.ModeRead, int64(0)
	if lr.Write {
		mode, modeAux = wire.ModeWrite, 1
	}
	mgrTeam := n.managerFor(lr.Obj)
	n.cfg.AppTrace.Record(trace.OpLockReq, mgrTeam, int64(lr.Obj), 0, 0, modeAux)
	w := waiter{site: grantWait, ep: app, obj: lr.Obj, peer: mgrTeam, suspect: mgrTeam,
		req: wire.Msg{Kind: wire.KindLockReq, Obj: uint32(lr.Obj), Mode: mode}}
	t0 := app.Now()
	if gone, err := n.sendTo(app, n.svcID(mgrTeam), w.req, true); gone {
		return n.acquireOne(lr)
	} else if err != nil {
		return err
	}
	grant, err := n.await(&w)
	if err != nil {
		return err
	}
	n.mc.AddTime(metrics.CatLockAcquire, app.Now()-t0)

	owner, version := int(grant.Ints[0]), grant.Ints[1]
	recycle(app, grant)
	n.cfg.AppTrace.Record(trace.OpLockGranted, owner, int64(lr.Obj), version, 0, modeAux)
	n.mu.Lock()
	local, _ := n.st.Version(lr.Obj)
	n.mu.Unlock()
	if version <= local || owner == n.team || (n.ft() && n.isCrashed(owner)) {
		return nil
	}
	t1 := app.Now()
	w = waiter{site: pullWait, ep: app, obj: lr.Obj, peer: owner,
		req: wire.Msg{Kind: wire.KindObjReq, Obj: uint32(lr.Obj), Stamp: int64(lr.Obj)}}
	if gone, err := n.sendTo(app, n.svcID(owner), w.req, true); gone || err != nil {
		return err // gone: the local replica stands in for the lost copy
	}
	reply, err := n.await(&w)
	if err != nil {
		return err
	}
	// A nil reply: the owner crashed before serving the pull; its latest
	// writes are lost (fail-stop) and the local replica is the freshest
	// surviving copy.
	if reply != nil {
		n.mu.Lock()
		err = n.st.SetState(lr.Obj, reply.Payload, reply.Ints[0]) // copies the payload
		n.mu.Unlock()
		recycle(app, reply)
		if err != nil {
			return fmt.Errorf("ec app %d: apply pulled %d: %w", n.team, lr.Obj, err)
		}
	}
	n.mc.AddTime(metrics.CatObjPull, app.Now()-t1)
	return nil
}

// cleanRelease is the Ints of every release that wrote nothing: shared and
// read-only, as a message's Ints are (DESIGN.md, "the message rule").
var cleanRelease = []int64{0, 0}

// releaseAll returns every lock; written objects release dirty with their
// new version, transferring ownership.
func (n *Node) releaseAll(locks []game.Access, dirty map[store.ID]int64) {
	app := n.cfg.App
	t0 := app.Now()
	for _, lr := range locks {
		mgrTeam := n.managerFor(lr.Obj)
		rel := wire.Msg{Kind: wire.KindLockRelease, Obj: uint32(lr.Obj), Ints: cleanRelease}
		if v, ok := dirty[lr.Obj]; ok && lr.Write {
			rel.Ints = n.appInts.Carve(1, v)
			n.cfg.AppTrace.Record(trace.OpLockRel, mgrTeam, int64(lr.Obj), v, 0, 1)
		} else {
			n.cfg.AppTrace.Record(trace.OpLockRel, mgrTeam, int64(lr.Obj), 0, 0, 0)
		}
		// Releases are asynchronous; errors only surface via metrics
		// divergence in tests.
		_ = n.send(app, n.svcID(mgrTeam), rel)
	}
	n.mc.AddTime(metrics.CatLockRelease, app.Now()-t0)
}

// write lands one of the turn's writes in the locked replica, keeping the
// version its release carries.
func (n *Node) write(id store.ID, state []byte) bool {
	_, v, _, err := n.st.WriteBy(id, state, n.team)
	if err != nil {
		return false
	}
	n.cfg.AppTrace.Record(trace.OpWrite, n.team, int64(id), v, 0, 0)
	n.dirty[id] = v
	return true
}
