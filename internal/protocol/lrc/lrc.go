// Package lrc implements the lazy release consistency baseline discussed in
// the paper's §2.3. Like entry consistency it synchronizes through locks,
// but "LRC has no explicit associations between shared data and
// synchronization primitives": a lock acquisition must convey information
// about changes to *all* shared data known to the releaser, not just the
// data guarded by the lock. We realize that with Treadmarks-flavored write
// notices:
//
//   - every dirty release ships the releaser's complete notice board —
//     (object, writer, version) triples for every modification it has made
//     or heard about — to the lock's manager;
//   - every grant ships the manager's accumulated board to the acquirer,
//     which invalidates any object whose noticed version exceeds its
//     replica's;
//   - touching an invalidated object triggers a lazy pull of the fresh copy
//     from the noticed writer (the paper's "history-based mechanism
//     determines what data modifications have to be transferred").
//
// The measurable §2.3 contrast with EC: notice boards inflate control
// message volume (bytes), and invalidations cause pulls for objects whose
// locks were never touched.
package lrc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"sdso/internal/game"
	"sdso/internal/lockmgr"
	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/transport"
	"sdso/internal/wire"
)

// notice records that writer produced version of obj.
type notice struct {
	writer  int
	version int64
}

// board is a notice set: the freshest known (writer, version) per object.
type board map[store.ID]notice

// merge folds other into b, keeping the higher version per object.
func (b board) merge(other board) {
	for id, n := range other {
		if cur, ok := b[id]; !ok || n.version > cur.version {
			b[id] = n
		}
	}
}

// encode flattens the board into int64 triples for wire transfer.
func (b board) encode() []byte {
	ids := make([]store.ID, 0, len(b))
	for id := range b {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	buf := binary.AppendUvarint(nil, uint64(len(ids)))
	for _, id := range ids {
		n := b[id]
		buf = binary.AppendUvarint(buf, uint64(id))
		buf = binary.AppendUvarint(buf, uint64(n.writer))
		buf = binary.AppendUvarint(buf, uint64(n.version))
	}
	return buf
}

// decodeBoard parses an encoded board.
func decodeBoard(buf []byte) (board, error) {
	count, k := binary.Uvarint(buf)
	if k <= 0 {
		return nil, errors.New("lrc: corrupt board header")
	}
	buf = buf[k:]
	// Each entry costs at least three varint bytes; anything claiming
	// more entries than the buffer could hold is corrupt (and must not
	// drive the allocation below).
	if count > uint64(len(buf)) {
		return nil, fmt.Errorf("lrc: board claims %d entries in %d bytes", count, len(buf))
	}
	b := make(board, count)
	for i := uint64(0); i < count; i++ {
		id, k := binary.Uvarint(buf)
		if k <= 0 {
			return nil, fmt.Errorf("lrc: corrupt board entry %d", i)
		}
		buf = buf[k:]
		writer, k := binary.Uvarint(buf)
		if k <= 0 {
			return nil, fmt.Errorf("lrc: corrupt board entry %d", i)
		}
		buf = buf[k:]
		version, k := binary.Uvarint(buf)
		if k <= 0 {
			return nil, fmt.Errorf("lrc: corrupt board entry %d", i)
		}
		buf = buf[k:]
		b[store.ID(id)] = notice{writer: int(writer), version: int64(version)}
	}
	return b, nil
}

// NodeConfig assembles one LRC game node (same two-process shape as EC).
type NodeConfig struct {
	Game           game.Config
	App            transport.Endpoint
	Svc            transport.Endpoint
	Metrics        *metrics.Collector
	ComputePerTick time.Duration
}

// Node is one LRC participant.
type Node struct {
	cfg   NodeConfig
	team  int
	teams int
	mc    *metrics.Collector

	mu    sync.Mutex
	st    *store.Store
	mgr   *lockmgr.Manager
	mgrBd board // manager-side accumulated notices

	known    board // app-side: freshest noticed versions
	goal     game.Pos
	tanks    []game.TankState
	stats    game.TeamStats
	gameOver bool
}

// New builds a node; callers run RunService and RunApp on separate
// processes.
func New(cfg NodeConfig) (*Node, error) {
	if cfg.App == nil || cfg.Svc == nil {
		return nil, errors.New("lrc: config requires app and svc endpoints")
	}
	teams := cfg.Game.Teams
	if cfg.App.ID() >= teams || cfg.Svc.ID() != teams+cfg.App.ID() {
		return nil, fmt.Errorf("lrc: endpoint ids app=%d svc=%d invalid for %d teams",
			cfg.App.ID(), cfg.Svc.ID(), teams)
	}
	mc := cfg.Metrics
	if mc == nil {
		mc = metrics.NewCollector()
	}
	n := &Node{
		cfg: cfg, team: cfg.App.ID(), teams: teams, mc: mc,
		mgrBd: make(board), known: make(board),
	}
	start, err := game.StartOf(cfg.Game)
	if err != nil {
		return nil, err
	}
	n.goal = start.Goal
	n.st = start.NewStore()
	for _, pos := range start.Tanks[n.team] {
		n.tanks = append(n.tanks, game.NewTankState(pos))
	}
	var managed []store.ID
	for i := 0; i < cfg.Game.NumObjects(); i++ {
		if lockmgr.ManagerFor(store.ID(i), teams) == n.team {
			managed = append(managed, store.ID(i))
		}
	}
	n.mgr = lockmgr.New(managed, nil)
	return n, nil
}

// Stats returns the final team stats (valid after RunApp).
func (n *Node) Stats() game.TeamStats { return n.stats }

func (n *Node) svcID(team int) int { return n.teams + team }

func (n *Node) countSend(ep transport.Endpoint, to int, m *wire.Msg) error {
	n.mc.CountSend(m, m.EncodedSize())
	return ep.Send(to, m)
}

// RunService plays lock manager and object server until all apps shut down.
func (n *Node) RunService() error {
	svc := n.cfg.Svc
	remaining := n.teams
	for remaining > 0 {
		m, err := svc.Recv()
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return fmt.Errorf("lrc service %d: %w", n.team, err)
		}
		switch m.Kind {
		case wire.KindLockReq:
			mode := lockmgr.Read
			if m.Mode == wire.ModeWrite {
				mode = lockmgr.Write
			}
			n.mu.Lock()
			grants, err := n.mgr.Acquire(lockmgr.Request{Proc: int(m.Src), Obj: store.ID(m.Obj), Mode: mode})
			n.mu.Unlock()
			if err != nil {
				return fmt.Errorf("lrc service %d: acquire: %w", n.team, err)
			}
			if err := n.sendGrants(grants); err != nil {
				return err
			}
		case wire.KindLockRelease:
			// A dirty release carries the releaser's notice board.
			if len(m.Payload) > 0 {
				bd, err := decodeBoard(m.Payload)
				if err == nil {
					n.mu.Lock()
					n.mgrBd.merge(bd)
					n.mu.Unlock()
				}
			}
			n.mu.Lock()
			grants, err := n.mgr.Release(int(m.Src), store.ID(m.Obj), m.Mode == wire.ModeWrite, 0)
			n.mu.Unlock()
			if err != nil {
				return fmt.Errorf("lrc service %d: release: %w", n.team, err)
			}
			if err := n.sendGrants(grants); err != nil {
				return err
			}
		case wire.KindObjReq:
			n.mu.Lock()
			state, errGet := n.st.Get(store.ID(m.Obj))
			ver, _ := n.st.Version(store.ID(m.Obj))
			n.mu.Unlock()
			if errGet != nil {
				return fmt.Errorf("lrc service %d: serve: %w", n.team, errGet)
			}
			reply := &wire.Msg{
				Kind: wire.KindObjReply, Obj: m.Obj, Stamp: m.Stamp,
				Ints: []int64{ver}, Payload: state,
			}
			if err := n.countSend(svc, int(m.Src), reply); err != nil {
				return err
			}
		case wire.KindShutdown:
			remaining--
		}
	}
	return nil
}

// sendGrants ships grants with the manager's accumulated notice board —
// the LRC-defining payload.
func (n *Node) sendGrants(grants []lockmgr.Grant) error {
	for _, g := range grants {
		mode := wire.ModeRead
		if g.Mode == lockmgr.Write {
			mode = wire.ModeWrite
		}
		n.mu.Lock()
		payload := n.mgrBd.encode()
		n.mu.Unlock()
		m := &wire.Msg{
			Kind: wire.KindLockGrant, Obj: uint32(g.Obj), Mode: mode,
			Payload: payload,
		}
		if err := n.countSend(n.cfg.Svc, g.Proc, m); err != nil {
			return fmt.Errorf("lrc service %d: grant: %w", n.team, err)
		}
	}
	return nil
}

type lockReq struct {
	obj   store.ID
	write bool
}

// RunApp executes the team's game loop.
func (n *Node) RunApp() (game.TeamStats, error) {
	app := n.cfg.App
	n.stats = game.TeamStats{Team: n.team}
	defer func() { n.mc.SetExecTime(app.Now()) }()

	for tick := 1; tick <= n.cfg.Game.MaxTicks; tick++ {
		if n.cfg.Game.EndOnFirstGoal {
			n.pollApp()
			if n.gameOver {
				n.stats.DoneTick = int64(tick)
				break
			}
		}
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

	if n.cfg.Game.EndOnFirstGoal && n.stats.ReachedGoal {
		for team := 0; team < n.teams; team++ {
			if team == n.team {
				continue
			}
			m := &wire.Msg{Kind: wire.KindDone, Mode: 1, Stamp: int64(n.team)}
			if err := n.countSend(app, team, m); err != nil {
				return n.stats, fmt.Errorf("lrc app %d: game-over: %w", n.team, err)
			}
		}
	}
	for team := 0; team < n.teams; team++ {
		m := &wire.Msg{Kind: wire.KindShutdown, Stamp: int64(n.team)}
		if err := n.countSend(app, n.svcID(team), m); err != nil {
			return n.stats, fmt.Errorf("lrc app %d: shutdown: %w", n.team, err)
		}
	}
	return n.stats, nil
}

func (n *Node) pollApp() {
	for {
		m, ok, err := n.cfg.App.TryRecv()
		if err != nil || !ok {
			return
		}
		if m.Kind == wire.KindDone {
			n.gameOver = true
		}
	}
}

// lockSet mirrors the EC lock set (the application's access pattern is the
// same; only the consistency machinery differs).
func (n *Node) lockSet() []lockReq {
	cfg := n.cfg.Game
	want := make(map[store.ID]bool)
	addVis := func(p game.Pos, write bool) {
		if !cfg.InBounds(p) {
			return
		}
		id := cfg.ObjectOf(p)
		if write {
			want[id] = true
		} else if _, ok := want[id]; !ok {
			want[id] = false
		}
	}
	for _, tank := range n.tanks {
		addVis(tank.Pos, true)
		dirs := []game.Pos{{X: 0, Y: -1}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: -1, Y: 0}}
		for _, d := range dirs {
			addVis(game.Pos{X: tank.Pos.X + d.X, Y: tank.Pos.Y + d.Y}, true)
			for k := 2; k <= cfg.Range; k++ {
				addVis(game.Pos{X: tank.Pos.X + d.X*k, Y: tank.Pos.Y + d.Y*k}, false)
			}
		}
	}
	out := make([]lockReq, 0, len(want))
	for id, write := range want {
		out = append(out, lockReq{obj: id, write: write})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].obj < out[j].obj })
	return out
}

// acquireAll acquires locks in order; each grant's notice board invalidates
// stale objects, and invalidated objects in this iteration's access set are
// pulled lazily from their noticed writers.
func (n *Node) acquireAll(locks []lockReq) error {
	app := n.cfg.App
	for _, lr := range locks {
		mgrTeam := lockmgr.ManagerFor(lr.obj, n.teams)
		req := &wire.Msg{Kind: wire.KindLockReq, Obj: uint32(lr.obj), Mode: lockMode(lr.write)}
		t0 := app.Now()
		if err := n.countSend(app, n.svcID(mgrTeam), req); err != nil {
			return fmt.Errorf("lrc app %d: lock req: %w", n.team, err)
		}
		grant, err := n.awaitKind(wire.KindLockGrant, uint32(lr.obj))
		if err != nil {
			return err
		}
		n.mc.AddTime(metrics.CatLockAcquire, app.Now()-t0)
		if len(grant.Payload) > 0 {
			if bd, err := decodeBoard(grant.Payload); err == nil {
				n.known.merge(bd)
			}
		}
	}
	// Lazy pulls: any accessed object whose noticed version exceeds the
	// local replica's.
	for _, lr := range locks {
		nt, ok := n.known[lr.obj]
		if !ok || nt.writer == n.team {
			continue
		}
		n.mu.Lock()
		local, _ := n.st.Version(lr.obj)
		n.mu.Unlock()
		if nt.version <= local {
			continue
		}
		t0 := app.Now()
		pull := &wire.Msg{Kind: wire.KindObjReq, Obj: uint32(lr.obj), Stamp: int64(lr.obj)}
		if err := n.countSend(app, n.svcID(nt.writer), pull); err != nil {
			return fmt.Errorf("lrc app %d: pull: %w", n.team, err)
		}
		reply, err := n.awaitKind(wire.KindObjReply, uint32(lr.obj))
		if err != nil {
			return err
		}
		n.mu.Lock()
		err = n.st.SetState(lr.obj, reply.Payload, reply.Ints[0])
		n.mu.Unlock()
		if err != nil {
			return fmt.Errorf("lrc app %d: apply pulled: %w", n.team, err)
		}
		n.mc.AddTime(metrics.CatObjPull, app.Now()-t0)
	}
	return nil
}

func lockMode(write bool) uint8 {
	if write {
		return wire.ModeWrite
	}
	return wire.ModeRead
}

func (n *Node) awaitKind(kind wire.Kind, obj uint32) (*wire.Msg, error) {
	for {
		m, err := n.cfg.App.Recv()
		if err != nil {
			return nil, fmt.Errorf("lrc app %d: await %v: %w", n.team, kind, err)
		}
		if m.Kind == kind && m.Obj == obj && (kind != wire.KindObjReply || len(m.Ints) > 0) {
			return m, nil // a peer's reply is outside input: read only a shaped one
		}
		if m.Kind == wire.KindDone {
			n.gameOver = true
		}
	}
}

// releaseAll returns every lock; dirty releases carry the full notice board
// (the LRC cost being measured).
func (n *Node) releaseAll(locks []lockReq, dirty map[store.ID]int64) {
	app := n.cfg.App
	t0 := app.Now()
	for _, lr := range locks {
		mgrTeam := lockmgr.ManagerFor(lr.obj, n.teams)
		rel := &wire.Msg{Kind: wire.KindLockRelease, Obj: uint32(lr.obj)}
		if _, wrote := dirty[lr.obj]; wrote && lr.write {
			rel.Mode = wire.ModeWrite
			rel.Payload = n.known.encode()
		}
		_ = n.countSend(app, n.svcID(mgrTeam), rel)
	}
	n.mc.AddTime(metrics.CatLockRelease, app.Now()-t0)
}

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

// decideAndWrite mirrors EC's, additionally recording write notices.
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
	enemies := make(map[int][]game.Pos)
	for _, tank := range n.tanks {
		dirs := []game.Pos{{X: 0, Y: -1}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: -1, Y: 0}}
		for _, d := range dirs {
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

	dirty := make(map[store.ID]int64)
	modified := false
	var next []game.TankState
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
			_, v, _, err := n.st.WriteBy(id, game.EncodeCell(cw.Cell), -1)
			if err != nil {
				continue
			}
			dirty[id] = v
			n.known[id] = notice{writer: n.team, version: v}
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
	n.tanks = next
	return dirty
}
