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
	"cmp"
	"errors"
	"fmt"
	"slices"
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
	// Debug, when set, receives trace lines (like core.Config.Debug).
	Debug func(string)

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

	goal     game.Pos
	tanks    []game.TankState
	locks    []lockReq // lockSet's scratch
	stats    game.TeamStats
	gameOver bool

	// decideAndWrite's scratch: the dirty versions it returns (valid until
	// its next call) and the tank buffer it swaps with tanks.
	dirty map[store.ID]int64
	spare []game.TankState
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

	// Rejoin state (guarded by mu). rejoinPending is true from New until
	// the service has restored the lock-manager shard from the join
	// handbacks; lock traffic for our own shard stalls in joinStalled
	// until then. handback caches the records exported per joining team so
	// a retransmitted join request resends the same payload (a second
	// Export would find nothing).
	rejoinPending bool
	joinAcked     map[int]bool
	joinSnapped   map[int]bool
	joinRecs      map[int][]lockmgr.Record
	joinStalled   []*wire.Msg
	handback      map[int][]byte

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
		n.qrep = make(map[store.ID]qOwnerRec)
		n.qpend = make(map[int64]*qPending)
		n.qAdopt = make(map[int]*qAdoptState)
		n.qAdopted = make(map[int]bool)
	}

	start, err := game.StartOf(cfg.Game)
	if err != nil {
		return nil, err
	}
	n.goal = start.Goal // the goal block never moves; keep it even if hidden
	if cfg.Rejoin {
		// The world and the tank roster come from peer checkpoints; the
		// lock-manager shard comes back via the join handback.
		n.st = store.New()
		n.mgr = lockmgr.New(nil, nil)
		n.rejoinPending = true
		n.joinAcked = make(map[int]bool)
		n.joinSnapped = make(map[int]bool)
		n.joinRecs = make(map[int][]lockmgr.Record)
		return n, nil
	}
	n.st = start.NewStore()
	for _, pos := range start.Tanks[n.team] {
		n.tanks = append(n.tanks, game.NewTankState(pos))
	}

	// This node manages the locks for its static shard of the objects.
	n.mgr = lockmgr.New(n.shardOf(n.team), nil)
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
func (n *Node) Stats() game.TeamStats { return n.stats }

// Store exposes the node's replica (for test assertions).
func (n *Node) Store() *store.Store {
	return n.st
}

// svcID returns the service endpoint ID for a team.
func (n *Node) svcID(team int) int { return n.teams + team }

func (n *Node) countSend(ep transport.Endpoint, to int, m *wire.Msg) error {
	n.mc.CountSend(m, m.EncodedSize())
	if err := ep.Send(to, m); err != nil {
		return err
	}
	// EC is request/response shaped: nearly every send immediately precedes
	// a block on Recv, so on transports with deferred flushing the frame
	// must go out now — there is no exchange-round barrier to ride.
	return transport.Flush(ep)
}

// send gives away a message shaped like t (DESIGN.md §15, the message
// rule): the struct comes from the wire pool, t's Payload is copied into the
// struct's own buffer and t's Ints are shared. A sender that must resend
// keeps t, a value, and sends it again.
func (n *Node) send(ep transport.Endpoint, to int, t wire.Msg) error {
	m := wire.GetMsg()
	t.Payload = append(m.Payload[:0], t.Payload...)
	*m = t
	return n.countSend(ep, to, m)
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

// debug reports whether tracing is on; call sites check it before tracef,
// whose arguments would otherwise be boxed on every call.
func (n *Node) debug() bool { return n.cfg.Debug != nil }

func (n *Node) tracef(format string, args ...any) {
	n.cfg.Debug(fmt.Sprintf(format, args...))
}

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
	n.mu.Lock()
	inc := n.inc[team]
	n.mu.Unlock()
	if !n.noteCrash(team, inc) {
		return
	}
	if n.debug() {
		n.tracef("team %d declares %d crashed (inc %d)", n.team, team, inc)
	}
	n.mc.AddEviction()
	crash := wire.Msg{Kind: wire.KindCrash, Stamp: int64(team), Ints: []int64{inc}}
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
	n.mu.Lock()
	inc := n.inc[dead]
	n.mu.Unlock()
	if n.debug() {
		n.tracef("app %d re-announces crash of %d (inc %d) to mgr %d", n.team, dead, inc, mgrTeam)
	}
	_ = n.send(n.cfg.App, n.svcID(mgrTeam), wire.Msg{Kind: wire.KindCrash, Stamp: int64(dead), Ints: []int64{inc}})
}

// liveManagerFor returns the team currently managing obj's lock: the static
// base manager, or — after its crash — the next live team scanning up from
// it. Every process computes the successor from its own crashed set; the
// KindCrash broadcast keeps the sets converging.
func (n *Node) liveManagerFor(obj store.ID) int {
	base := lockmgr.ManagerFor(obj, n.teams)
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := 0; i < n.teams; i++ {
		t := (base + i) % n.teams
		if !n.crashed[t] {
			return t
		}
	}
	return n.team
}

// adoptShards makes this node's manager adopt the shard of every crashed
// base manager whose live successor it now is. Idempotent; called by the
// service loop after each crash announcement (covers cascaded crashes: if
// an adopter dies too, the next successor re-adopts the whole chain).
func (n *Node) adoptShards() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for dead := 0; dead < n.teams; dead++ {
		if !n.crashed[dead] {
			continue
		}
		succ := -1
		for i := 1; i <= n.teams; i++ {
			t := (dead + i) % n.teams
			if !n.crashed[t] {
				succ = t
				break
			}
		}
		if succ != n.team {
			continue
		}
		var objs []store.ID
		for i := 0; i < n.cfg.Game.NumObjects(); i++ {
			if lockmgr.ManagerFor(store.ID(i), n.teams) == dead {
				objs = append(objs, store.ID(i))
			}
		}
		n.mgr.Adopt(objs, n.team)
	}
}

// routeAction is routeLock's disposition for lock traffic.
type routeAction int

const (
	// routeServe: handle the message at this manager.
	routeServe routeAction = iota
	// routeStall: our own shard is mid-rejoin; the message was queued and
	// will be replayed once the handback restores the shard.
	routeStall
	// routeForward: a live team closer to the object's base manages it;
	// the message was sent on (the sender's crash view was stale).
	routeForward
)

// routeLock decides what to do with a lock request or release for obj.
// Normally the object is managed here and is served. Otherwise the sender
// redirected traffic here believing every team from the object's static
// base manager up to this node has crashed. Three cases:
//
//   - The object is our own shard and the rejoin handback has not landed
//     yet: stall the message until it does (serving from a fresh shard
//     could double-grant a lock whose true holder is in the in-flight
//     handback).
//   - Some team in the chain is live by our (fresher) view — typically a
//     rejoined manager whose return the sender has not yet processed:
//     forward the message to the first live team so it is served by the
//     real manager; the grant goes straight to the original requester.
//   - The whole chain really is crashed: the routing itself carries crash
//     news (a KindCrash announcement lost in transit), so adopt the
//     implied shard chain and serve.
func (n *Node) routeLock(m *wire.Msg) (routeAction, int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	obj := store.ID(m.Obj)
	if n.mgr.Manages(obj) {
		return routeServe, 0
	}
	base := lockmgr.ManagerFor(obj, n.teams)
	if base == n.team {
		if n.rejoinPending {
			n.joinStalled = append(n.joinStalled, m)
			return routeStall, 0
		}
		return routeServe, 0
	}
	chain := make(map[int]bool)
	for t := base; t != n.team; t = (t + 1) % n.teams {
		if !n.crashed[t] {
			return routeForward, t
		}
		chain[t] = true
	}
	if n.debug() {
		n.tracef("svc %d adopts shard chain for obj %d (teams %v)", n.team, obj, chain)
	}
	var objs []store.ID
	for i := 0; i < n.cfg.Game.NumObjects(); i++ {
		id := store.ID(i)
		if chain[lockmgr.ManagerFor(id, n.teams)] {
			objs = append(objs, id)
		}
	}
	n.mgr.Adopt(objs, n.team)
	return routeServe, 0
}

// RunService processes lock and object-pull traffic until every
// application process has announced shutdown or been declared crashed.
// Under crash tolerance the service never counts its own co-located
// application as crashed (it is demonstrably alive), and once that
// application has shut down, prolonged total silence lets the service exit
// rather than deadlock on shutdown or crash announcements lost in transit.
// A message is recycled at the bottom of the loop once served; the paths
// that keep it (stalled, forwarded) continue past that point.
func (n *Node) RunService() error {
	svc := n.cfg.Svc
	remaining := n.teams
	handled := make(map[int]bool, n.teams) // teams counted toward remaining
	idle := 0
	wait := n.cfg.SuspectTimeout
	for remaining > 0 {
		var m *wire.Msg
		var err error
		if n.ft() {
			var ok bool
			m, ok, err = svc.RecvTimeout(wait)
			if err == nil && !ok {
				if !handled[n.team] {
					continue // our app still runs; just keep listening
				}
				idle++
				if idle > n.maxRetransmits() {
					if n.debug() {
						n.tracef("svc %d now=%v idle-exit, remaining %d", n.team, svc.Now(), remaining)
					}
					return nil
				}
				if wait < 8*n.cfg.SuspectTimeout {
					wait *= 2
				}
				continue
			}
			idle = 0
			wait = n.cfg.SuspectTimeout
		} else {
			m, err = svc.Recv()
		}
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return fmt.Errorf("ec service %d: %w", n.team, err)
		}
		switch m.Kind {
		case wire.KindLockReq, wire.KindLockRelease:
			if n.ft() {
				act, to := n.routeLock(m)
				if act == routeStall {
					continue
				}
				if act == routeForward {
					if err := n.forwardLock(m, to); err != nil {
						return err
					}
					continue
				}
				// routeLock may have just chain-adopted a dead manager's
				// shard: in quorum mode the ownership must be reconstructed
				// from the group before any of its locks are served.
				if err := n.startAdoptRecon(); err != nil {
					return err
				}
				if n.stallForAdopt(m) {
					continue
				}
			}
			if err := n.serveLock(m); err != nil {
				return err
			}
		case wire.KindObjReq:
			n.mu.Lock()
			state, errGet := n.st.View(store.ID(m.Obj)) // published: immutable
			ver, _ := n.st.Version(store.ID(m.Obj))
			n.mu.Unlock()
			if errGet != nil {
				return fmt.Errorf("ec service %d: serve obj %d: %w", n.team, m.Obj, errGet)
			}
			reply := wire.Msg{
				Kind: wire.KindObjReply, Obj: m.Obj, Stamp: m.Stamp,
				Ints: n.svcInts.Carve(ver), Payload: state,
			}
			if err := n.send(svc, int(m.Src), reply); err != nil {
				return err
			}
		case wire.KindShutdown:
			if src := int(m.Stamp); !handled[src] {
				handled[src] = true
				remaining--
			}
			if n.debug() {
				n.tracef("svc %d now=%v shutdown from %d, remaining %d", n.team, svc.Now(), m.Stamp, remaining)
			}
		case wire.KindCrash:
			// A crash declaration: stop waiting for the dead team's
			// shutdown, free every lock it held or queued for (granting
			// unblocked waiters), and adopt its manager shard if this node
			// is now the successor.
			dead := int(m.Stamp)
			if dead == n.team {
				// A false declaration about our own co-located (and
				// demonstrably alive) application: purging its locks or
				// abandoning its shutdown would orphan it.
				break
			}
			fresh := n.noteCrash(dead, crashInc(m))
			if !fresh && !n.isCrashed(dead) {
				break // stale declaration: the team has since rejoined
			}
			if !handled[dead] {
				handled[dead] = true
				remaining--
			}
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
			if err := n.finishRejoin(); err != nil {
				return err
			}
		case wire.KindQWrite:
			if err := n.handleQWrite(m); err != nil {
				return err
			}
		case wire.KindQWriteAck:
			if err := n.handleQWriteAck(m); err != nil {
				return err
			}
		case wire.KindQRead:
			if err := n.handleQRead(m); err != nil {
				return err
			}
		case wire.KindQReadAck:
			if err := n.handleQReadAck(m); err != nil {
				return err
			}
		case wire.KindJoinReq:
			if err := n.serveJoin(m, handled, &remaining); err != nil {
				return err
			}
		case wire.KindJoinAck:
			if err := n.acceptJoinAck(m, handled, &remaining); err != nil {
				return err
			}
		case wire.KindSnapshot:
			if err := n.acceptJoinSnapshot(m); err != nil {
				return err
			}
		}
		recycle(svc, m)
	}
	return nil
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
// busy reply then goes straight back to them). The received struct itself
// travels on, so it is gone once sent. A forward to a team that died in the
// meantime is dropped: the requester's own retransmission will re-route
// once the crash news reaches it.
func (n *Node) forwardLock(m *wire.Msg, to int) error {
	kind, obj, proc := m.Kind, m.Obj, lockProc(m)
	m.Stamp = int64(proc) + 1
	if err := n.countSend(n.cfg.Svc, n.svcID(to), m); err != nil {
		if errors.Is(err, transport.ErrPeerGone) {
			n.declareCrash(to)
			return nil
		}
		return fmt.Errorf("ec service %d: forward %v obj %d to %d: %w", n.team, kind, obj, to, err)
	}
	if n.debug() {
		n.tracef("svc %d forwards %v obj %d for proc %d to %d", n.team, kind, obj, proc, to)
	}
	return nil
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
func (n *Node) serveJoin(m *wire.Msg, handled map[int]bool, remaining *int) error {
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
	if handled[t] {
		// The joiner was counted out (crashed); wait for its shutdown again.
		handled[t] = false
		*remaining++
	}
	if fresh {
		n.mc.AddJoin()
		if n.debug() {
			n.tracef("svc %d admits team %d (inc %d): %d handback bytes", n.team, t, inc, len(payload))
		}
	}
	ack := wire.Msg{Kind: wire.KindJoinAck, Stamp: inc, Ints: ints, Payload: payload}
	if err := n.send(n.cfg.Svc, n.svcID(t), ack); err != nil {
		if errors.Is(err, transport.ErrPeerGone) {
			return nil
		}
		return fmt.Errorf("ec service %d: join ack to %d: %w", n.team, t, err)
	}
	n.mc.AddSnapshotBytes(len(snap))
	if err := n.send(n.cfg.Svc, n.svcID(t), wire.Msg{Kind: wire.KindSnapshot, Payload: snap}); err != nil && !errors.Is(err, transport.ErrPeerGone) {
		return fmt.Errorf("ec service %d: snapshot to %d: %w", n.team, t, err)
	}
	return nil
}

// acceptJoinAck is the joiner half, run in the rejoining node's service
// loop: record the responder's handback records and its view of the game
// (game-over flag, crashed set), then try to finish the rejoin.
func (n *Node) acceptJoinAck(m *wire.Msg, handled map[int]bool, remaining *int) error {
	if !n.cfg.Rejoin {
		return nil
	}
	from := int(m.Src) - n.teams
	if from < 0 || from >= n.teams || from == n.team {
		return nil
	}
	recs, err := lockmgr.DecodeRecords(m.Payload)
	if err != nil {
		return nil // corrupt handback; the app's retransmit fetches another
	}
	var newlyCrashed []int
	n.mu.Lock()
	n.joinAcked[from] = true
	n.joinRecs[from] = recs
	delete(n.crashed, from) // the responder is demonstrably alive
	delete(n.qAdopted, from)
	if len(m.Ints) > 0 && m.Ints[0] == 1 {
		n.over = true
	}
	for _, c := range m.Ints[1:] {
		t := int(c)
		if t >= 0 && t < n.teams && t != n.team && t != from && !n.crashed[t] {
			n.crashed[t] = true
			newlyCrashed = append(newlyCrashed, t)
		}
	}
	n.mu.Unlock()
	for _, t := range newlyCrashed {
		if !handled[t] {
			handled[t] = true
			*remaining--
		}
	}
	return n.finishRejoin()
}

// acceptJoinSnapshot merges a responder's checkpoint into the replica,
// version-gated: merging every responder's snapshot makes the union capture
// every surviving write, whichever replica holds the freshest copy of each
// object.
func (n *Node) acceptJoinSnapshot(m *wire.Msg) error {
	if !n.cfg.Rejoin {
		return nil
	}
	from := int(m.Src) - n.teams
	if from < 0 || from >= n.teams || from == n.team {
		return nil
	}
	n.mu.Lock()
	adopted, _, err := n.st.Merge(m.Payload)
	if err == nil {
		n.joinSnapped[from] = true
	}
	n.mu.Unlock()
	if err != nil {
		return nil // corrupt checkpoint is dropped; a retransmission follows
	}
	n.mc.AddCatchupDiffs(adopted)
	return n.finishRejoin()
}

// finishRejoin completes the rejoin once every live team has delivered both
// its ack and its checkpoint: restore the lock-manager shard — handback
// records first (they carry live holders, queues, and ownership), then a
// fresh adopt of whatever remains — and replay the lock traffic that
// stalled while the shard was in flight.
func (n *Node) finishRejoin() error {
	n.mu.Lock()
	if !n.rejoinPending {
		n.mu.Unlock()
		return nil
	}
	for t := 0; t < n.teams; t++ {
		if t == n.team || n.crashed[t] {
			continue
		}
		if !n.joinAcked[t] || !n.joinSnapped[t] {
			n.mu.Unlock()
			return nil
		}
	}
	n.rejoinPending = false
	for t := 0; t < n.teams; t++ {
		if recs := n.joinRecs[t]; len(recs) > 0 {
			n.mgr.Readmit(recs)
		}
	}
	n.mgr.Adopt(n.shardOf(n.team), n.team)
	stalled := n.joinStalled
	n.joinStalled = nil
	n.mu.Unlock()
	if n.debug() {
		n.tracef("svc %d rejoin complete: shard restored, replaying %d stalled messages", n.team, len(stalled))
	}
	return n.replay(stalled)
}

// replay serves lock traffic that stalled while its shard was in flight,
// recycling each message once served.
func (n *Node) replay(stalled []*wire.Msg) error {
	for _, m := range stalled {
		if err := n.serveLock(m); err != nil {
			return err
		}
		recycle(n.cfg.Svc, m)
	}
	return nil
}

// lockReq is one entry of an iteration's lock set.
type lockReq struct {
	obj   store.ID
	write bool
}

// RunApp executes the team's game loop to completion.
func (n *Node) RunApp() (game.TeamStats, error) {
	app := n.cfg.App
	n.stats = game.TeamStats{Team: n.team}
	defer func() {
		n.mc.SetExecTime(app.Now())
	}()

	if n.cfg.Rejoin {
		if err := n.runJoin(); err != nil {
			return n.stats, err
		}
	}

	for tick := 1; tick <= n.cfg.Game.MaxTicks; tick++ {
		if n.cfg.Game.EndOnFirstGoal {
			// Drain queued winner announcements before paying for locks.
			n.pollApp()
			if n.gameOver {
				n.stats.DoneTick = int64(tick)
				break
			}
		}
		if n.debug() {
			n.tracef("app %d now=%v tick %d", n.team, app.Now(), tick)
		}
		n.cfg.AppTrace.Record(trace.OpTick, -1, 0, 0, int64(tick), 0)
		locks := n.lockSet()
		if err := n.acquireAll(locks); err != nil {
			return n.stats, err
		}

		appStart := app.Now()
		alive := n.refreshTanks()
		if !alive {
			n.releaseAll(locks, nil)
			if !n.stats.ReachedGoal {
				n.stats.Destroyed = true
			}
			n.stats.DoneTick = int64(tick)
			break
		}
		n.stats.Ticks++

		dirty := n.decideAndWrite()
		n.mc.AddTime(metrics.CatAppCompute, app.Now()-appStart)
		if n.cfg.ComputePerTick > 0 {
			app.Compute(n.cfg.ComputePerTick)
			n.mc.AddTime(metrics.CatAppCompute, n.cfg.ComputePerTick)
		}

		n.releaseAll(locks, dirty)

		if n.stats.ReachedGoal && len(n.tanks) == 0 {
			n.stats.DoneTick = int64(tick)
			break
		}
	}
	if n.stats.DoneTick == 0 {
		n.stats.DoneTick = int64(n.stats.Ticks)
	}

	// In a first-to-goal game the winner tells every application the race
	// is over.
	if n.cfg.Game.EndOnFirstGoal && n.stats.ReachedGoal {
		n.noteGameOver() // late joiners asking after this learn it from acks
		for team := 0; team < n.teams; team++ {
			if team == n.team || (n.ft() && n.isCrashed(team)) {
				continue
			}
			if err := n.send(app, team, wire.Msg{Kind: wire.KindDone, Mode: 1, Stamp: int64(n.team)}); err != nil {
				if n.ft() && errors.Is(err, transport.ErrPeerGone) {
					n.declareCrash(team)
					continue
				}
				return n.stats, fmt.Errorf("ec app %d: game-over to %d: %w", n.team, team, err)
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
		if err := n.send(app, n.svcID(team), wire.Msg{Kind: wire.KindShutdown, Stamp: int64(n.team)}); err != nil {
			if n.ft() && errors.Is(err, transport.ErrPeerGone) {
				continue
			}
			return n.stats, fmt.Errorf("ec app %d: shutdown to %d: %w", n.team, team, err)
		}
	}
	return n.stats, nil
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
	req := wire.Msg{Kind: wire.KindJoinReq, Stamp: n.cfg.Incarnation}
	var targets []int
	for t := 0; t < n.teams; t++ {
		if t != n.team {
			targets = append(targets, t)
		}
	}
	unresolved := func() []int {
		n.mu.Lock()
		defer n.mu.Unlock()
		var out []int
		for _, t := range targets {
			if !n.crashed[t] && !(n.joinAcked[t] && n.joinSnapped[t]) {
				out = append(out, t)
			}
		}
		return out
	}
	send := func(t int) error {
		if err := n.send(app, n.svcID(t), req); err != nil {
			if errors.Is(err, transport.ErrPeerGone) {
				n.declareCrash(t)
				return nil
			}
			return fmt.Errorf("ec app %d: join req to %d: %w", n.team, t, err)
		}
		return nil
	}
	for _, t := range targets {
		if err := send(t); err != nil {
			return err
		}
	}
	timeout := n.cfg.SuspectTimeout
	wait := timeout
	retries := 0
	for len(unresolved()) > 0 {
		m, ok, err := app.RecvTimeout(wait)
		if err != nil {
			return fmt.Errorf("ec app %d: join wait: %w", n.team, err)
		}
		if ok {
			n.noteAppMsg(m)
			continue
		}
		retries++
		if retries > n.maxRetransmits() {
			// Non-responders are presumed dead; the join completes among
			// whoever answered.
			for _, t := range unresolved() {
				n.declareCrash(t)
			}
			break
		}
		for _, t := range unresolved() {
			if err := send(t); err != nil {
				return err
			}
			n.mc.AddRetransmit()
		}
		if wait < 8*timeout {
			wait *= 2
		}
	}
	// The service flips rejoinPending once every handback and checkpoint is
	// in (our evictions above reach it as KindCrash); wait for that so the
	// world below is complete.
	for {
		n.mu.Lock()
		pending := n.rejoinPending
		n.mu.Unlock()
		if !pending {
			break
		}
		m, ok, err := app.RecvTimeout(timeout)
		if err != nil {
			return fmt.Errorf("ec app %d: join wait: %w", n.team, err)
		}
		if ok {
			n.noteAppMsg(m)
		}
	}
	n.mu.Lock()
	acks := len(n.joinAcked)
	if n.over {
		n.gameOver = true
	}
	var w *game.World
	var err error
	if acks > 0 {
		w, err = game.DecodeWorld(n.cfg.Game, n.st)
	}
	n.mu.Unlock()
	if acks == 0 {
		return fmt.Errorf("ec app %d: rejoin found no live peers", n.team)
	}
	if err != nil {
		return fmt.Errorf("ec app %d: decode joined world: %w", n.team, err)
	}
	for _, pos := range w.TanksByTeam()[n.team] {
		n.tanks = append(n.tanks, game.NewTankState(pos))
	}
	n.mc.AddJoin()
	if n.debug() {
		n.tracef("app %d rejoined (inc %d): %d acks, %d tanks", n.team, n.cfg.Incarnation, acks, len(n.tanks))
	}
	return nil
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

// lockDirs is the order lockSet sweeps a tank's four rays in.
var lockDirs = [4]game.Pos{{X: 0, Y: -1}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: -1, Y: 0}}

// lockSet computes this iteration's lock requests: write locks on each
// tank's block and the four adjacent blocks, read locks on the rest of the
// visibility set, ascending object order (deadlock prevention). The result
// is the node's scratch, valid until the next call.
func (n *Node) lockSet() []lockReq {
	cfg := n.cfg.Game
	out := n.locks[:0]
	addVis := func(p game.Pos, write bool) {
		if cfg.InBounds(p) {
			out = append(out, lockReq{obj: cfg.ObjectOf(p), write: write})
		}
	}
	for _, tank := range n.tanks {
		addVis(tank.Pos, true)
		for _, d := range lockDirs {
			addVis(game.Pos{X: tank.Pos.X + d.X, Y: tank.Pos.Y + d.Y}, true)
			for k := 2; k <= cfg.Range; k++ {
				addVis(game.Pos{X: tank.Pos.X + d.X*k, Y: tank.Pos.Y + d.Y*k}, false)
			}
		}
	}
	// One request per object, a write if any sweep asked for one.
	slices.SortFunc(out, func(a, b lockReq) int { return cmp.Compare(a.obj, b.obj) })
	k := 0
	for _, lr := range out {
		if k > 0 && out[k-1].obj == lr.obj {
			out[k-1].write = out[k-1].write || lr.write
			continue
		}
		out[k] = lr
		k++
	}
	n.locks = out[:k]
	return n.locks
}

// acquireAll acquires the lock set in order, pulling fresh copies as grants
// reveal newer versions elsewhere.
func (n *Node) acquireAll(locks []lockReq) error {
	for _, lr := range locks {
		if err := n.acquireOne(lr); err != nil {
			return err
		}
	}
	return nil
}

// acquireOne acquires one lock, failing over to the successor manager and
// purging dead holders when crash tolerance is on.
func (n *Node) acquireOne(lr lockReq) error {
	app := n.cfg.App
	mode := wire.ModeRead
	if lr.write {
		mode = wire.ModeWrite
	}
	mgrTeam := lockmgr.ManagerFor(lr.obj, n.teams)
	if n.ft() {
		mgrTeam = n.liveManagerFor(lr.obj)
	}
	var modeAux int64
	if lr.write {
		modeAux = 1
	}
	n.cfg.AppTrace.Record(trace.OpLockReq, mgrTeam, int64(lr.obj), 0, 0, modeAux)
	req := wire.Msg{Kind: wire.KindLockReq, Obj: uint32(lr.obj), Mode: mode}
	t0 := app.Now()
	if err := n.send(app, n.svcID(mgrTeam), req); err != nil {
		if n.ft() && errors.Is(err, transport.ErrPeerGone) {
			n.declareCrash(mgrTeam)
			return n.acquireOne(lr)
		}
		return fmt.Errorf("ec app %d: lock req %d: %w", n.team, lr.obj, err)
	}
	var grant *wire.Msg
	var err error
	if n.ft() {
		grant, err = n.awaitGrantFT(lr.obj, req, mgrTeam)
	} else {
		grant, err = n.awaitKind(wire.KindLockGrant, uint32(lr.obj))
	}
	if err != nil {
		return err
	}
	n.mc.AddTime(metrics.CatLockAcquire, app.Now()-t0)

	owner, version := int(grant.Ints[0]), grant.Ints[1]
	recycle(app, grant)
	n.cfg.AppTrace.Record(trace.OpLockGranted, owner, int64(lr.obj), version, 0, modeAux)
	n.mu.Lock()
	local, _ := n.st.Version(lr.obj)
	n.mu.Unlock()
	if version > local && owner != n.team && !(n.ft() && n.isCrashed(owner)) {
		t1 := app.Now()
		pull := wire.Msg{Kind: wire.KindObjReq, Obj: uint32(lr.obj), Stamp: int64(lr.obj)}
		if err := n.send(app, n.svcID(owner), pull); err != nil {
			if n.ft() && errors.Is(err, transport.ErrPeerGone) {
				n.declareCrash(owner)
				return nil // local replica stands in for the lost copy
			}
			return fmt.Errorf("ec app %d: pull %d: %w", n.team, lr.obj, err)
		}
		var reply *wire.Msg
		if n.ft() {
			var ok bool
			reply, ok, err = n.awaitPullFT(lr.obj, pull, owner)
			if err != nil {
				return err
			}
			if !ok {
				// The owner crashed before serving the pull; its latest
				// writes are lost (fail-stop) and the local replica is
				// the freshest surviving copy.
				n.mc.AddTime(metrics.CatObjPull, app.Now()-t1)
				return nil
			}
		} else {
			reply, err = n.awaitKind(wire.KindObjReply, uint32(lr.obj))
			if err != nil {
				return err
			}
		}
		n.mu.Lock()
		err = n.st.SetState(lr.obj, reply.Payload, reply.Ints[0]) // copies the payload
		n.mu.Unlock()
		recycle(app, reply)
		if err != nil {
			return fmt.Errorf("ec app %d: apply pulled %d: %w", n.team, lr.obj, err)
		}
		n.mc.AddTime(metrics.CatObjPull, app.Now()-t1)
	}
	return nil
}

// awaitKind blocks until a message of the wanted kind for the wanted object
// arrives. The application has at most one outstanding request, so no other
// traffic can interleave.
func (n *Node) awaitKind(kind wire.Kind, obj uint32) (*wire.Msg, error) {
	for {
		m, err := n.cfg.App.Recv()
		if err != nil {
			return nil, fmt.Errorf("ec app %d: await %v: %w", n.team, kind, err)
		}
		if m.Kind == kind && m.Obj == obj {
			return m, nil
		}
		// A winner's announcement arriving mid-acquire is noted and the
		// wait goes on (locks are still released properly at the end of the
		// iteration).
		n.noteAppMsg(m)
	}
}

// awaitGrantFT waits for the grant of obj with failure detection. Silence
// past the suspicion timeout retransmits the request under bounded
// exponential backoff; exhausted retries declare the current suspect — the
// manager, or (after a KindLockBusy hint) a lock holder — crashed, and the
// wait restarts against the recovered state: a dead manager's successor is
// re-asked, a dead holder's purge lets the (live) manager grant.
func (n *Node) awaitGrantFT(obj store.ID, req wire.Msg, mgrTeam int) (*wire.Msg, error) {
	app := n.cfg.App
	timeout := n.cfg.SuspectTimeout
	wait := timeout
	retries := 0
	suspect := mgrTeam
	suspectIsHolder := false
	failover := func() error {
		mgrTeam = n.liveManagerFor(obj)
		suspect = mgrTeam
		suspectIsHolder = false
		retries = 0
		wait = timeout
		if n.debug() {
			n.tracef("app %d now=%v obj=%d failover to mgr %d", n.team, app.Now(), obj, mgrTeam)
		}
		if err := n.send(app, n.svcID(mgrTeam), req); err != nil {
			return fmt.Errorf("ec app %d: failover lock req %d to %d: %w", n.team, obj, mgrTeam, err)
		}
		n.mc.AddRetransmit()
		return nil
	}
	for {
		m, ok, err := app.RecvTimeout(wait)
		if err != nil {
			return nil, fmt.Errorf("ec app %d: await grant %d: %w", n.team, obj, err)
		}
		if ok {
			switch {
			case m.Kind == wire.KindLockGrant && m.Obj == uint32(obj):
				return m, nil
			case m.Kind == wire.KindLockBusy && m.Obj == uint32(obj):
				// The manager is alive but the lock is held elsewhere:
				// blame the first live foreign holder instead.
				blamed := false
				for _, h := range m.Ints {
					if int(h) != n.team && !n.isCrashed(int(h)) {
						suspect = int(h)
						suspectIsHolder = true
						blamed = true
						break
					}
				}
				if !blamed {
					// Every foreign holder named is already buried in our
					// view, yet the manager still serves their locks: its
					// copy of the KindCrash broadcast was lost, and
					// declareCrash won't repeat old news. Re-announce the
					// burials to this manager so it purges the phantom
					// holders and grants the queued request.
					for _, h := range m.Ints {
						if int(h) != n.team && n.isCrashed(int(h)) {
							n.reannounceCrash(int(h), mgrTeam)
						}
					}
				}
			}
			buried := m.Kind == wire.KindCrash && int(m.Stamp) == mgrTeam
			n.noteAppMsg(m)
			if buried && n.isCrashed(mgrTeam) {
				// Someone else buried our manager; fail over now.
				if err := failover(); err != nil {
					return nil, err
				}
			}
			continue
		}
		if retries == 0 {
			n.mc.AddSuspect()
		}
		retries++
		if cur := n.liveManagerFor(obj); cur != mgrTeam {
			// The routing changed beneath us — a crash learned through
			// another exchange, or the base manager rejoined. Re-aim at
			// the current manager before spending the retry budget on the
			// wrong one.
			mgrTeam = cur
			suspect = cur
			suspectIsHolder = false
		}
		if n.debug() {
			n.tracef("app %d now=%v obj=%d grant-wait timeout #%d suspect=%d holder=%v",
				n.team, app.Now(), obj, retries, suspect, suspectIsHolder)
		}
		if retries > n.maxRetransmits() {
			n.declareCrash(suspect)
			if suspectIsHolder {
				// The manager outlives the holder: its purge on KindCrash
				// will grant us the lock. Resume suspecting the manager.
				suspect = mgrTeam
				suspectIsHolder = false
				retries = 0
				wait = timeout
				continue
			}
			if err := failover(); err != nil {
				return nil, err
			}
			continue
		}
		if err := n.send(app, n.svcID(mgrTeam), req); err != nil {
			if errors.Is(err, transport.ErrPeerGone) {
				n.declareCrash(mgrTeam)
				if err := failover(); err != nil {
					return nil, err
				}
				continue
			}
			return nil, fmt.Errorf("ec app %d: retransmit lock req %d: %w", n.team, obj, err)
		}
		n.mc.AddRetransmit()
		if wait < 8*timeout {
			wait *= 2
		}
	}
}

// awaitPullFT waits for an object-pull reply with failure detection. ok is
// false when the owner was declared crashed instead of answering — the
// caller falls back to its local replica.
func (n *Node) awaitPullFT(obj store.ID, req wire.Msg, owner int) (*wire.Msg, bool, error) {
	app := n.cfg.App
	timeout := n.cfg.SuspectTimeout
	wait := timeout
	retries := 0
	for {
		m, ok, err := app.RecvTimeout(wait)
		if err != nil {
			return nil, false, fmt.Errorf("ec app %d: await pull %d: %w", n.team, obj, err)
		}
		if ok {
			if m.Kind == wire.KindObjReply && m.Obj == uint32(obj) {
				return m, true, nil
			}
			buried := m.Kind == wire.KindCrash && int(m.Stamp) == owner
			n.noteAppMsg(m)
			if buried && n.isCrashed(owner) {
				return nil, false, nil
			}
			continue
		}
		if retries == 0 {
			n.mc.AddSuspect()
		}
		retries++
		if retries > n.maxRetransmits() {
			n.declareCrash(owner)
			return nil, false, nil
		}
		if err := n.send(app, n.svcID(owner), req); err != nil {
			if errors.Is(err, transport.ErrPeerGone) {
				n.declareCrash(owner)
				return nil, false, nil
			}
			return nil, false, fmt.Errorf("ec app %d: retransmit pull %d: %w", n.team, obj, err)
		}
		n.mc.AddRetransmit()
		if wait < 8*timeout {
			wait *= 2
		}
	}
}

// cleanRelease is the Ints of every release that wrote nothing: shared and
// read-only, as a message's Ints are (DESIGN.md, "the message rule").
var cleanRelease = []int64{0, 0}

// releaseAll returns every lock; written objects release dirty with their
// new version, transferring ownership.
func (n *Node) releaseAll(locks []lockReq, dirty map[store.ID]int64) {
	app := n.cfg.App
	t0 := app.Now()
	for _, lr := range locks {
		mgrTeam := lockmgr.ManagerFor(lr.obj, n.teams)
		if n.ft() {
			mgrTeam = n.liveManagerFor(lr.obj)
		}
		rel := wire.Msg{Kind: wire.KindLockRelease, Obj: uint32(lr.obj), Ints: cleanRelease}
		if v, ok := dirty[lr.obj]; ok && lr.write {
			rel.Ints = n.appInts.Carve(1, v)
			n.cfg.AppTrace.Record(trace.OpLockRel, mgrTeam, int64(lr.obj), v, 0, 1)
		} else {
			n.cfg.AppTrace.Record(trace.OpLockRel, mgrTeam, int64(lr.obj), 0, 0, 0)
		}
		// Releases are asynchronous; errors only surface via metrics
		// divergence in tests.
		_ = n.send(app, n.svcID(mgrTeam), rel)
	}
	n.mc.AddTime(metrics.CatLockRelease, app.Now()-t0)
}

// refreshTanks drops destroyed tanks; reports whether any remain.
func (n *Node) refreshTanks() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	alive := n.tanks[:0]
	for _, tank := range n.tanks {
		b, err := n.st.View(n.cfg.Game.ObjectOf(tank.Pos))
		if err != nil {
			continue
		}
		c, err := game.DecodeCell(b)
		if err == nil && c.Kind == game.Tank && c.Team == n.team {
			alive = append(alive, tank)
		}
	}
	n.tanks = alive
	return len(n.tanks) > 0
}

// decideAndWrite runs the decision function on the freshly locked state and
// applies the writes; returns the dirty object versions, valid until the
// next call.
func (n *Node) decideAndWrite() map[store.ID]int64 {
	cfg := n.cfg.Game
	n.mu.Lock()
	defer n.mu.Unlock()

	cellAt := func(p game.Pos) game.Cell {
		b, err := n.st.View(cfg.ObjectOf(p))
		if err != nil {
			return game.Cell{Kind: game.Bomb}
		}
		c, err := game.DecodeCell(b)
		if err != nil {
			return game.Cell{Kind: game.Bomb}
		}
		return c
	}
	// Enemy positions come from the locked visibility cells (EC has no
	// beacons; the locks themselves guarantee freshness).
	enemies := make(map[int][]game.Pos)
	for _, tank := range n.tanks {
		for _, d := range lockDirs {
			for k := 1; k <= cfg.Range; k++ {
				p := game.Pos{X: tank.Pos.X + d.X*k, Y: tank.Pos.Y + d.Y*k}
				if !cfg.InBounds(p) {
					break
				}
				if c := cellAt(p); c.Kind == game.Tank && c.Team != n.team {
					enemies[c.Team] = append(enemies[c.Team], p)
				}
			}
		}
	}

	dirty := n.dirty
	clear(dirty)
	modified := false
	next := n.spare[:0]
	for _, tank := range n.tanks {
		act := game.Decide(game.View{
			Cfg:     cfg,
			Team:    n.team,
			Self:    tank.Pos,
			Prev:    tank.Prev,
			Goal:    n.goal,
			CellAt:  cellAt,
			Enemies: enemies,
		})
		var prevTarget game.Cell
		if act.Kind == game.Move {
			prevTarget = cellAt(act.To)
		}
		writes, reachedGoal := act.Writes(n.team, n.goal)
		for _, cw := range writes {
			id := cfg.ObjectOf(cw.Pos)
			_, v, _, err := n.st.WriteBy(id, game.EncodeCell(cw.Cell), n.team)
			if err != nil {
				continue
			}
			n.cfg.AppTrace.Record(trace.OpWrite, n.team, int64(id), v, 0, 0)
			dirty[id] = v
			modified = true
		}
		switch {
		case reachedGoal:
			n.stats.ReachedGoal = true
			n.stats.Score += 5
		case act.Kind == game.Move:
			if prevTarget.Kind == game.Bonus {
				n.stats.Score++
			}
			next = append(next, tank.Advance(act))
		default:
			next = append(next, tank)
		}
	}
	if modified {
		n.stats.Mods++
		n.mc.AddMod()
	}
	n.mc.AddTick()
	n.spare, n.tanks = n.tanks, next
	return dirty
}
