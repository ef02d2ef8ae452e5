// Package ec implements the paper's entry consistency baseline (§2.3, §4):
//
//   - one lock per block object; "the lock managers are distributed evenly
//     and statically amongst the processors" (object k's on node k mod n);
//   - a process write-locks the blocks it may modify (its own and the four
//     adjacent) and read-locks the rest it sees: 5 locks per move at range
//     1, 13 at range 3, as in §4;
//   - locks are acquired in ascending object order, the paper's deadlock
//     prevention;
//   - acquiring a lock "pulls" the freshest copy from its owner when the
//     replica is stale, and a dirty release makes the releaser the owner.
//
// Each node runs an application process and a service process on one
// host: the service manages its share of the locks and serves pulls from
// the node's replica. What a lock conveys is the node's Policy, the last
// bullet EC's; LRC is the same node with internal/protocol/lrc's notice
// boards and without EC's suspicion, failover, rejoin and quorum.
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
	// SuspectTimeout enables crash tolerance: a grant, pull or ack silent
	// this long is a strike, the request is resent under backoff, and after
	// MaxRetransmits strikes the silent team is declared crashed by a
	// KindCrash broadcast: every service purges its locks and the next live
	// team up adopts its shard. A manager answers a retransmitted request
	// it queues with KindLockBusy, naming the holders to suspect instead.
	// Zero keeps the fail-free blocking behavior.
	SuspectTimeout time.Duration
	// MaxRetransmits bounds retransmissions per suspicion episode; zero
	// means transport.DefaultMaxRetransmits.
	MaxRetransmits int
	// Rejoin makes this node enter a game in progress: its replica is
	// rebuilt from the survivors' checkpoints and its shard from the
	// adopters' handbacks. Requires SuspectTimeout > 0.
	Rejoin bool
	// Incarnation numbers this team's lives (with Rejoin; 1 for a first
	// restart), so a crash declaration that predates a rejoin is stale.
	Incarnation int64
	// QuorumF, when > 0, replicates each shard's ownership to a quorum
	// group of 2f+1 services (quorum.go), so a crashed manager's successor
	// rebuilds it instead of restarting at version 0. Requires
	// SuspectTimeout > 0.
	QuorumF int

	// AppTrace and SvcTrace, when set, record each process's observation
	// history for the consistency oracle (internal/check).
	AppTrace *trace.Recorder
	SvcTrace *trace.Recorder

	// Policy is what a lock conveys; nil is EC's.
	Policy Policy
}

// Node is one lock-protocol participant (EC, or LRC under its policy): an
// application and a co-located service sharing a replica and a lock shard.
type Node struct {
	cfg   NodeConfig
	team  int
	teams int
	mc    *metrics.Collector
	pol   Policy

	mu  sync.Mutex // guards st and mgr (app and svc touch both)
	st  *store.Store
	mgr *lockmgr.Manager

	turn     game.Team
	gameOver bool               // the application's copy of over
	dirty    map[store.ID]int64 // the versions of the tick's writes, for its releases
	// Each side carves its messages' Ints from its own chunk.
	appInts, svcInts wire.IntsChunk

	// The rest is guarded by mu: the team and the shard tables
	// (custody.go), the game-over flag the service reports to joiners, and
	// quorum.go's round counter, backup records and pending rounds.
	lives  []life
	shards []shard
	over   bool
	qseq   int64
	qrep   map[store.ID]qOwnerRec
	qpend  map[int64]*qPending
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
		cfg: cfg, team: cfg.App.ID(), teams: teams, mc: mc, pol: cfg.Policy,
		lives: make([]life, teams), shards: make([]shard, teams),
		dirty: make(map[store.ID]int64),
	}
	if n.pol == nil {
		n.pol = entry{n}
	}
	if cfg.Incarnation > 0 {
		n.lives[n.team].inc = cfg.Incarnation
	}
	if cfg.QuorumF > 0 {
		n.qrep = make(map[store.ID]qOwnerRec)
		n.qpend = make(map[int64]*qPending)
	}

	turn, start, err := game.NewTeam(&n.cfg.Game, n.team)
	if err != nil {
		return nil, err
	}
	n.turn = turn
	if cfg.Rejoin { // the world comes from checkpoints, the shard from handbacks
		n.st = store.New()
		n.mgr = lockmgr.New(nil, nil)
		n.shards[n.team] = shard{custody: rejoining, answers: make([]answer, teams)}
	} else {
		n.st = start.NewStore()
		n.mgr = lockmgr.New(n.shardOf(n.team), nil)
		n.shards[n.team].custody = home
	}
	n.turn.Replica = n.st
	return n, nil
}

// Store exposes the node's replica.
func (n *Node) Store() *store.Store { return n.st }

// svcID returns the service endpoint ID for a team.
func (n *Node) svcID(team int) int { return n.teams + team }

// send gives away a pooled message shaped like t (DESIGN.md §15, the
// message rule): t's Payload is copied and its Ints shared, so a sender that
// must resend keeps t and sends it again.
func (n *Node) send(ep transport.Endpoint, to int, t wire.Msg) error {
	m := wire.GetMsgOf(t)
	n.mc.CountSend(m, m.EncodedSize())
	if err := ep.Send(to, m); err != nil {
		return err
	}
	return transport.Flush(ep) // a block on Recv follows nearly every send
}

// recycle hands a consumed message back to ep's free-list; rare join traffic,
// a snapshot the size of a world, is left to the garbage collector.
func recycle(ep transport.Endpoint, m *wire.Msg) {
	if k := m.Kind; k != wire.KindJoinReq && k != wire.KindJoinAck && k != wire.KindSnapshot {
		transport.Recycle(ep, m)
	}
}

// ft reports whether crash tolerance is enabled.
func (n *Node) ft() bool { return n.cfg.SuspectTimeout > 0 }

func (n *Node) isCrashed(team int) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.life(team).down()
}

// noteGameOver records a winner's announcement.
func (n *Node) noteGameOver() {
	n.gameOver = true
	n.mu.Lock()
	n.over = true
	n.mu.Unlock()
}

// crashInc is the incarnation a KindCrash declares dead.
func crashInc(m *wire.Msg) int64 {
	if len(m.Ints) > 0 {
		return m.Ints[0]
	}
	return 0
}

// lockProc returns the process a lock request or release acts for: the
// sender, or for forwarded traffic (forwardLock) the requester in Stamp-1.
func lockProc(m *wire.Msg) int {
	if m.Stamp > 0 {
		return int(m.Stamp) - 1
	}
	return int(m.Src)
}

// noteCrash records a crash declaration and reports whether it was news.
func (n *Node) noteCrash(team int, inc int64) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.move(team, onCrash, inc)
}

// declareCrash marks team crashed and broadcasts KindCrash, with its
// incarnation as known here, to every live application and every service,
// our own included. It goes before any failed-over request, so per-pair
// FIFO has the successor adopt the shard before it sees our redirected
// traffic.
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

// reannounceCrash repeats an old declaration to one manager whose
// KindLockBusy names only holders known dead here: its copy of the one
// broadcast was lost.
func (n *Node) reannounceCrash(dead, mgrTeam int) {
	_ = n.send(n.cfg.App, n.svcID(mgrTeam), n.crashNews(dead))
}

// crashNews is the KindCrash declaration of team.
func (n *Node) crashNews(team int) wire.Msg {
	n.mu.Lock()
	defer n.mu.Unlock()
	return wire.Msg{Kind: wire.KindCrash, Stamp: int64(team), Ints: []int64{n.life(team).inc}}
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
// managed by the first team from base up that is not crashed in this
// node's view.
func (n *Node) successor(base int) int {
	for i := range n.teams {
		if t := (base + i) % n.teams; !n.lives[t].down() {
			return t
		}
	}
	return n.team
}

// adoptShards adopts the shard of every crashed manager this node now
// succeeds, a whole chain of them after cascaded crashes. Idempotent.
func (n *Node) adoptShards() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for dead := range n.teams {
		if n.lives[dead].down() && n.successor(dead) == n.team {
			n.shift(dead, onAdopt, nil)
		}
	}
}

// routeLock returns the team a lock request or release goes on to, or -1
// to serve it here. One for an object not managed here came from a sender
// that holds every team from its base up to here crashed: the first of
// them live in this (fresher) view, a rejoined manager say, gets it;
// if none is, the routing is crash news lost in transit, and this node
// adopts the chain.
func (n *Node) routeLock(m *wire.Msg) (forward int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	obj := store.ID(m.Obj)
	base := lockmgr.ManagerFor(obj, n.teams)
	if n.mgr.Manages(obj) || base == n.team {
		return -1
	}
	for t := base; t != n.team; t = (t + 1) % n.teams {
		if !n.lives[t].down() {
			return t
		}
	}
	for t := base; t != n.team; t = (t + 1) % n.teams {
		n.shift(t, onAdopt, nil)
	}
	return -1
}

// stall parks lock traffic for a shard in flight to this service until it
// lands (DESIGN.md §8), and reports whether it did: serving it earlier could
// double-grant a lock held in a handback, or name a version-0 owner.
func (n *Node) stall(m *wire.Msg) bool {
	base := lockmgr.ManagerFor(store.ID(m.Obj), n.teams)
	n.mu.Lock()
	defer n.mu.Unlock()
	_, ok := n.shift(base, onStall, m)
	return ok
}

// land installs base's shard in flight once all of it is in (shift's
// onLand), then serves the traffic parked behind it.
func (n *Node) land(base int) error {
	n.mu.Lock()
	stalled, _ := n.shift(base, onLand, nil)
	n.mu.Unlock()
	for _, m := range stalled {
		if err := n.serveLock(m); err != nil {
			return err
		}
		recycle(n.cfg.Svc, m)
	}
	return nil
}

// RunService serves lock and pull traffic until it has counted every team
// out, shut down or crashed; once its own application has shut down, a
// long silence ends it too, for announcements lost in transit. A message
// is recycled once handled, unless it stalled.
func (n *Node) RunService() error {
	svc := n.cfg.Svc
	for !n.allOut() {
		n.mu.Lock()
		w := waiter{site: serviceWait, ep: svc, idle: n.lives[n.team].out()}
		n.mu.Unlock()
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
		stalled, err := n.serve(m)
		if err != nil {
			return err
		}
		if !stalled {
			recycle(svc, m)
		}
	}
	return nil
}

// allOut reports whether the service has counted every team out.
func (n *Node) allOut() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, l := range n.lives {
		if !l.out() {
			return false
		}
	}
	return true
}

// serve handles one frame at the service; stalled reports that it was
// parked behind a shard in flight, to be served when the shard lands.
func (n *Node) serve(m *wire.Msg) (stalled bool, err error) {
	switch m.Kind {
	case wire.KindLockReq, wire.KindLockRelease:
		if !n.ft() {
			return false, n.serveLock(m)
		}
		if to := n.routeLock(m); to >= 0 {
			return false, n.forwardLock(m, to)
		}
		// A chain routeLock adopted is rebuilt from its group first.
		if err := n.startAdoptRecon(); err != nil {
			return false, err
		}
		if n.stall(m) {
			return true, nil
		}
		return false, n.serveLock(m)
	case wire.KindObjReq:
		n.mu.Lock()
		state, errGet := n.st.View(store.ID(m.Obj)) // published: immutable
		ver, _ := n.st.Version(store.ID(m.Obj))
		n.mu.Unlock()
		if errGet != nil {
			return false, fmt.Errorf("ec service %d: serve obj %d: %w", n.team, m.Obj, errGet)
		}
		return false, n.send(n.cfg.Svc, int(m.Src), wire.Msg{
			Kind: wire.KindObjReply, Obj: m.Obj, Stamp: m.Stamp,
			Ints: n.svcInts.Carve(ver), Payload: state,
		})
	case wire.KindShutdown:
		n.mu.Lock()
		n.move(int(m.Stamp), onShutdown, 0)
		n.mu.Unlock()
	case wire.KindCrash:
		return false, n.handleCrash(int(m.Stamp), crashInc(m))
	case wire.KindQWrite:
		return false, n.handleQWrite(m)
	case wire.KindQWriteAck:
		return false, n.handleQWriteAck(m)
	case wire.KindQRead:
		return false, n.handleQRead(m)
	case wire.KindQReadAck:
		return false, n.handleQReadAck(m)
	case wire.KindJoinReq:
		return false, n.serveJoin(m)
	case wire.KindJoinAck, wire.KindSnapshot:
		return false, n.acceptJoin(m)
	}
	return false, nil
}

// handleCrash serves a declaration of dead: count it out, free its locks,
// and adopt what this node now succeeds to. One about our own application,
// or a stale one, changes nothing.
func (n *Node) handleCrash(dead int, inc int64) error {
	n.mu.Lock()
	n.move(dead, onBury, inc)
	if n.life(dead).status != crashed {
		n.mu.Unlock()
		return nil
	}
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

// handleLockReq serves one lock request. A retransmitted one is answered
// with the grant again if the requester holds the lock, else with a
// KindLockBusy naming the holders, for the requester to suspect instead.
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
	dirty, version := n.pol.Released(m)
	var dirtyAux int64
	if dirty {
		dirtyAux = 1
	}
	n.cfg.SvcTrace.Record(trace.OpMgrRelease, proc, int64(m.Obj), version, 0, dirtyAux)
	n.mu.Lock()
	grants, err := n.mgr.Release(proc, store.ID(m.Obj), dirty, version)
	n.mu.Unlock()
	if n.ft() && errors.Is(err, lockmgr.ErrNotHeld) {
		err = nil // granted by a crashed manager: the adopter never saw it
	}
	if err != nil {
		return fmt.Errorf("ec service %d: release obj %d by %d: %w", n.team, m.Obj, proc, err)
	}
	if n.qf() > 0 && dirty { // the ownership must outlive this manager
		return n.replicateOwner(store.ID(m.Obj), proc, version, grants)
	}
	return n.sendGrants(grants)
}

// forwardLock sends a misrouted lock message on to its manager, tagged
// with the requester that the answer goes to. One to a team since dead is
// dropped: the requester's retransmission re-routes.
func (n *Node) forwardLock(m *wire.Msg, to int) error {
	m.Stamp = int64(lockProc(m)) + 1
	_, err := n.sendTo(n.cfg.Svc, n.svcID(to), *m, true)
	return err
}

func (n *Node) sendGrants(grants []lockmgr.Grant) error {
	for _, g := range grants {
		mode, modeAux := wire.ModeRead, int64(0)
		if g.Mode == lockmgr.Write {
			mode, modeAux = wire.ModeWrite, 1
		}
		n.cfg.SvcTrace.Record(trace.OpMgrGrant, g.Proc, int64(g.Obj), g.Version, 0, modeAux)
		m := n.pol.Grant(wire.Msg{Kind: wire.KindLockGrant, Obj: uint32(g.Obj), Mode: mode}, g)
		if err := n.send(n.cfg.Svc, g.Proc, m); err != nil {
			return fmt.Errorf("ec service %d: send grant: %w", n.team, err)
		}
	}
	return nil
}

// serveJoin is the survivor half of a rejoin: readmit the joiner, export
// what is held here of its shard, dropping a quorum read of it still in
// flight and forwarding the traffic parked behind that, and answer with a
// KindJoinAck (game-over flag, crashed set, the exported records) and a
// KindSnapshot of the replica. A retransmission of the same incarnation
// gets the same records.
func (n *Node) serveJoin(m *wire.Msg) error {
	t := int(m.Src)
	if t < 0 || t >= n.teams || t == n.team {
		return nil
	}
	inc := m.Stamp
	n.mu.Lock()
	if inc < n.lives[t].inc {
		n.mu.Unlock()
		return nil // a request from a previous life, long superseded
	}
	fresh := inc > n.lives[t].inc || n.shards[t].handback == nil
	n.move(t, onReadmit, inc)
	var stalled []*wire.Msg
	if fresh {
		stalled, _ = n.shift(t, onExport, nil)
	} else {
		n.shift(t, onReturn, nil)
	}
	payload := n.shards[t].handback
	ints := []int64{0}
	if n.over {
		ints[0] = 1
	}
	for c, l := range n.lives {
		if l.down() {
			ints = append(ints, int64(c))
		}
	}
	snap := n.st.Snapshot(0)
	n.mu.Unlock()
	for _, m := range stalled {
		if err := n.forwardLock(m, t); err != nil {
			return err
		}
		recycle(n.cfg.Svc, m)
	}
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

// acceptJoin is the joiner half: a survivor's KindJoinAck brings its
// handback and its view of the game, and its KindSnapshot is merged, so the
// union of checkpoints holds every surviving write. A corrupt one is
// dropped for the application's retransmission to fetch again.
func (n *Node) acceptJoin(m *wire.Msg) error {
	from := int(m.Src) - n.teams
	if !n.cfg.Rejoin || from < 0 || from >= n.teams || from == n.team {
		return nil
	}
	n.mu.Lock()
	_, ok := n.shift(n.team, onAnswer, m)
	if ok && m.Kind == wire.KindJoinAck {
		n.move(from, onAlive, 0) // the responder is demonstrably alive
		n.shift(from, onReturn, nil)
		n.over = n.over || m.Ints[0] == 1 // shaped: the game-over flag
		for _, c := range m.Ints[1:] {
			if t := int(c); t != from {
				n.move(t, onListed, 0)
			}
		}
	}
	n.mu.Unlock()
	if !ok {
		return nil
	}
	return n.land(n.team)
}

// RunApp executes the team's game loop to completion.
func (n *Node) RunApp() (game.TeamStats, error) {
	app := n.cfg.App
	defer func() { n.mc.SetExecTime(app.Now()) }()

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
		locks := n.turn.AccessSet(n.cfg.Game.Range)
		if err := n.acquireAll(locks); err != nil {
			return n.turn.Stats, err
		}

		appStart := app.Now()
		n.mu.Lock()
		playing := n.turn.Begin(int64(tick))
		if playing {
			clear(n.dirty)
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

	// In a first-to-goal game the winner tells every application.
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

	// Every service not crashed, our own included, counts us out.
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

// runJoin is the application half of a rejoin: ask every other service,
// retransmitting until each has answered our service or is buried, wait
// for the own shard to land, and take the tanks from the merged world.
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
	w = waiter{site: landWait, ep: app}
	if _, err := n.await(&w); err != nil {
		return err
	}
	n.mu.Lock()
	acks := 0
	for _, a := range n.shards[n.team].answers {
		if a.acked {
			acks++
		}
	}
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

// unanswered returns the live teams whose join ack or checkpoint is not in.
func (n *Node) unanswered() []int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.unansweredLocked()
}

// unansweredLocked is unanswered for callers that hold n.mu.
func (n *Node) unansweredLocked() []int {
	var out []int
	for t, a := range n.shards[n.team].answers {
		if t != n.team && !n.lives[t].down() && !(a.acked && a.snapped) {
			out = append(out, t)
		}
	}
	return out
}

// noteAppMsg consumes an application frame that answers no wait: a winner
// or a crash is noted, and the frame recycled.
func (n *Node) noteAppMsg(m *wire.Msg) {
	switch m.Kind {
	case wire.KindDone:
		n.noteGameOver()
	case wire.KindCrash:
		n.noteCrash(int(m.Stamp), crashInc(m))
	}
	recycle(n.cfg.App, m)
}

// pollApp drains the application's queue without blocking.
func (n *Node) pollApp() {
	for {
		m, ok, err := n.cfg.App.TryRecv()
		if err != nil || !ok {
			return
		}
		n.noteAppMsg(m)
	}
}

// acquireAll acquires the lock set in order, then asks the policy again
// about each object once the whole set is held, pulling what it names.
func (n *Node) acquireAll(locks []game.Access) error {
	for _, lr := range locks {
		if err := n.acquireOne(lr); err != nil {
			return err
		}
	}
	for _, lr := range locks {
		from, v := n.pol.Acquired(lr.Obj, nil)
		if err := n.pull(lr.Obj, from, v); err != nil {
			return err
		}
	}
	return nil
}

// acquireOne acquires one lock, and pulls the copy the policy reads off the
// grant.
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

	from, version := n.pol.Acquired(lr.Obj, grant)
	recycle(app, grant)
	n.cfg.AppTrace.Record(trace.OpLockGranted, from, int64(lr.Obj), version, 0, modeAux)
	return n.pull(lr.Obj, from, version)
}

// pull is the one pull: obj's copy comes from team from when that is another
// live team and version is newer than the replica's.
func (n *Node) pull(obj store.ID, from int, version int64) error {
	if from < 0 || from == n.team || (n.ft() && n.isCrashed(from)) {
		return nil
	}
	n.mu.Lock()
	local, _ := n.st.Version(obj)
	n.mu.Unlock()
	if version <= local {
		return nil
	}
	app := n.cfg.App
	t0 := app.Now()
	w := waiter{site: pullWait, ep: app, obj: obj, peer: from,
		req: wire.Msg{Kind: wire.KindObjReq, Obj: uint32(obj), Stamp: int64(obj)}}
	if gone, err := n.sendTo(app, n.svcID(from), w.req, true); gone || err != nil {
		return err // gone: the local replica stands in for the lost copy
	}
	reply, err := n.await(&w)
	if err != nil {
		return err
	}
	if reply != nil { // nil: the owner crashed, the replica stands in
		n.mu.Lock()
		err = n.st.SetState(obj, reply.Payload, reply.Ints[0]) // copies the payload
		n.mu.Unlock()
		recycle(app, reply)
		if err != nil {
			return fmt.Errorf("ec app %d: apply pulled %d: %w", n.team, obj, err)
		}
	}
	n.mc.AddTime(metrics.CatObjPull, app.Now()-t0)
	return nil
}

// releaseAll returns every lock, each release carrying what the policy puts
// in it for the tick's writes.
func (n *Node) releaseAll(locks []game.Access, dirty map[store.ID]int64) {
	app := n.cfg.App
	t0 := app.Now()
	for _, lr := range locks {
		mgrTeam := n.managerFor(lr.Obj)
		v, wrote := dirty[lr.Obj]
		wrote = wrote && lr.Write
		rel := n.pol.Release(wire.Msg{Kind: wire.KindLockRelease, Obj: uint32(lr.Obj)}, wrote, v)
		if wrote {
			n.cfg.AppTrace.Record(trace.OpLockRel, mgrTeam, int64(lr.Obj), v, 0, 1)
		} else {
			n.cfg.AppTrace.Record(trace.OpLockRel, mgrTeam, int64(lr.Obj), 0, 0, 0)
		}
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
	n.pol.Wrote(id, v)
	return true
}
