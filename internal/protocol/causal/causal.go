// Package causal implements the causal-memory baseline the paper's §2.3
// argues against: every object modification is broadcast as a causally
// ordered update (vector timestamps, causal delivery), and — because causal
// memory alone "does not ensure the correct execution of collaborative
// applications" — processes barrier each tick so that writes that could
// affect the next operation are visible, exactly as §2.2 describes for the
// worst case ("each process must barrier synchronize with every other
// process after each interval").
//
// Relative to BSYNC this pays the §2.3 costs being criticized: every update
// carries an n-entry vector timestamp, delivery requires causal buffering,
// and no application knowledge ever narrows the recipient set.
package causal

import (
	"errors"
	"fmt"
	"time"

	"sdso/internal/clock"
	"sdso/internal/diff"
	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/transport"
	"sdso/internal/wire"
	"sdso/internal/xlist"
)

// PlayerConfig configures one causal-memory game process.
type PlayerConfig struct {
	// Game is the shared configuration.
	Game game.Config
	// Endpoint connects the player; its ID is the team.
	Endpoint transport.Endpoint
	// Metrics receives counters (nil allocates one).
	Metrics *metrics.Collector
	// ComputePerTick models per-tick application work.
	ComputePerTick time.Duration
}

// player is one causal-memory process.
type player struct {
	cfg  PlayerConfig
	ep   transport.Endpoint
	mc   *metrics.Collector
	team int

	st    *store.Store
	vc    clock.Vector
	tick  int64
	goal  game.Pos
	tanks []game.TankState

	// Causal delivery machinery.
	pending  []*wire.Msg   // updates not yet causally deliverable
	tickSeen map[int]int64 // peer -> latest update tick delivered
	peerDone map[int]bool
	gameOver bool

	stats game.TeamStats
}

// RunPlayer executes one team's process under causal memory.
func RunPlayer(cfg PlayerConfig) (game.TeamStats, error) {
	if cfg.Endpoint == nil {
		return game.TeamStats{}, errors.New("causal: config requires an endpoint")
	}
	if cfg.Game.Teams != cfg.Endpoint.N() {
		return game.TeamStats{}, fmt.Errorf("causal: %d teams but %d endpoints", cfg.Game.Teams, cfg.Endpoint.N())
	}
	mc := cfg.Metrics
	if mc == nil {
		mc = metrics.NewCollector()
	}
	p := &player{
		cfg:      cfg,
		ep:       cfg.Endpoint,
		mc:       mc,
		team:     cfg.Endpoint.ID(),
		vc:       clock.NewVector(cfg.Endpoint.N()),
		tickSeen: make(map[int]int64),
		peerDone: make(map[int]bool),
		stats:    game.TeamStats{Team: cfg.Endpoint.ID()},
	}
	start, err := game.StartOf(cfg.Game)
	if err != nil {
		return game.TeamStats{}, err
	}
	p.goal = start.Goal
	p.st = start.NewStore()
	for _, pos := range start.Tanks[p.team] {
		p.tanks = append(p.tanks, game.NewTankState(pos))
	}
	err = p.play()
	mc.SetExecTime(cfg.Endpoint.Now())
	return p.stats, err
}

func (p *player) send(to int, m *wire.Msg) error {
	p.mc.CountSend(m, m.EncodedSize())
	return p.ep.Send(to, m)
}

func (p *player) livePeers() []int {
	var out []int
	for peer := 0; peer < p.ep.N(); peer++ {
		if peer != p.team && !p.peerDone[peer] {
			out = append(out, peer)
		}
	}
	return out
}

func (p *player) play() error {
	cfg := p.cfg.Game
	for tick := int64(1); tick <= int64(cfg.MaxTicks); tick++ {
		p.tick = tick
		if cfg.EndOnFirstGoal && p.gameOver {
			p.stats.DoneTick = tick
			return p.finish(false)
		}
		appStart := p.ep.Now()
		p.refreshTanks()
		if len(p.tanks) == 0 {
			if !p.stats.ReachedGoal {
				p.stats.Destroyed = true
			}
			p.stats.DoneTick = tick
			return p.finish(false)
		}
		p.stats.Ticks++
		p.mc.AddTick()

		writes, reachedGoal := p.decide()
		p.mc.AddTime(metrics.CatAppCompute, p.ep.Now()-appStart)
		if p.cfg.ComputePerTick > 0 {
			p.ep.Compute(p.cfg.ComputePerTick)
			p.mc.AddTime(metrics.CatAppCompute, p.cfg.ComputePerTick)
		}

		// Causal broadcast of this tick's writes, then barrier: wait
		// for every live peer's tick-t update (delivered causally).
		exStart := p.ep.Now()
		p.vc.Tick(p.team)
		update := &wire.Msg{
			Kind:    wire.KindUpdate,
			Stamp:   tick,
			Ints:    p.vc.Ints(),
			Payload: xlist.EncodeDiffs(writes),
		}
		for _, peer := range p.livePeers() {
			if err := p.send(peer, update.Clone()); err != nil {
				return fmt.Errorf("causal tick %d: %w", tick, err)
			}
		}
		if err := p.barrier(tick); err != nil {
			return err
		}
		p.mc.AddTime(metrics.CatExchange, p.ep.Now()-exStart)

		if reachedGoal && len(p.tanks) == 0 {
			p.stats.DoneTick = tick
			return p.finish(true)
		}
	}
	p.stats.DoneTick = int64(p.stats.Ticks)
	return p.finish(p.stats.ReachedGoal)
}

// barrier blocks until every live peer's update for this tick has been
// causally delivered.
func (p *player) barrier(tick int64) error {
	for {
		done := true
		for _, peer := range p.livePeers() {
			if p.tickSeen[peer] < tick {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		m, err := p.ep.Recv()
		if err != nil {
			return fmt.Errorf("causal barrier tick %d: %w", tick, err)
		}
		p.handle(m)
	}
}

// handle dispatches a message and drains any pending updates that became
// causally deliverable.
func (p *player) handle(m *wire.Msg) {
	switch m.Kind {
	case wire.KindUpdate:
		p.pending = append(p.pending, m)
		p.drainDeliverable()
	case wire.KindDone:
		peer := int(m.Src)
		p.peerDone[peer] = true
		if m.Mode == 1 {
			p.gameOver = true
		}
		// A departing peer's in-flight updates are delivered by FIFO
		// before its DONE; causal gaps from it cannot occur.
		p.drainDeliverable()
	}
}

// drainDeliverable applies every pending update whose causal predecessors
// have all been delivered.
func (p *player) drainDeliverable() {
	for {
		progress := false
		for i, m := range p.pending {
			mv := clock.VectorFromInts(m.Ints)
			if !clock.CausallyReady(mv, p.vc, int(m.Src)) {
				continue
			}
			p.apply(m)
			p.vc.Merge(mv)
			if m.Stamp > p.tickSeen[int(m.Src)] {
				p.tickSeen[int(m.Src)] = m.Stamp
			}
			p.pending = append(p.pending[:i], p.pending[i+1:]...)
			progress = true
			break
		}
		if !progress {
			return
		}
	}
}

func (p *player) apply(m *wire.Msg) {
	diffs, err := xlist.DecodeDiffs(m.Payload)
	if err != nil {
		return
	}
	for _, od := range diffs {
		cur, err := p.st.Version(od.Obj)
		if err != nil || od.Version <= cur {
			continue
		}
		_ = p.st.ApplyDiff(od.Obj, od.D, od.Version)
	}
}

// finish announces completion to all peers.
func (p *player) finish(won bool) error {
	var mode uint8
	if won {
		mode = 1
	}
	for _, peer := range p.livePeers() {
		m := &wire.Msg{Kind: wire.KindDone, Stamp: p.tick, Mode: mode}
		if err := p.send(peer, m); err != nil {
			return fmt.Errorf("causal done: %w", err)
		}
	}
	return nil
}

// refreshTanks drops destroyed tanks.
func (p *player) refreshTanks() {
	cfg := p.cfg.Game
	alive := p.tanks[:0]
	for _, tank := range p.tanks {
		b, err := p.st.View(cfg.ObjectOf(tank.Pos))
		if err != nil {
			continue
		}
		c, err := game.DecodeCell(b)
		if err == nil && c.Kind == game.Tank && c.Team == p.team {
			alive = append(alive, tank)
		}
	}
	p.tanks = alive
}

// decide runs the shared decision function on the (barrier-fresh) replica
// and applies the writes locally, returning them as replace diffs.
func (p *player) decide() ([]xlist.ObjDiff, bool) {
	cfg := p.cfg.Game
	cellAt := func(pos game.Pos) game.Cell {
		b, err := p.st.View(cfg.ObjectOf(pos))
		if err != nil {
			return game.Cell{Kind: game.Bomb}
		}
		c, err := game.DecodeCell(b)
		if err != nil {
			return game.Cell{Kind: game.Bomb}
		}
		return c
	}
	// With a per-tick barrier the whole replica is fresh; enemy
	// positions come from a full scan (causal memory has no beacons).
	enemies := make(map[int][]game.Pos)
	for i := 0; i < cfg.NumObjects(); i++ {
		b, err := p.st.View(store.ID(i))
		if err != nil {
			continue
		}
		c, err := game.DecodeCell(b)
		if err == nil && c.Kind == game.Tank && c.Team != p.team {
			enemies[c.Team] = append(enemies[c.Team], cfg.PosOf(store.ID(i)))
		}
	}

	var out []xlist.ObjDiff
	reached := false
	modified := false
	var next []game.TankState
	for _, tank := range p.tanks {
		act := game.Decide(game.View{
			Cfg:     cfg,
			Team:    p.team,
			Self:    tank.Pos,
			Prev:    tank.Prev,
			Goal:    p.goal,
			CellAt:  cellAt,
			Enemies: enemies,
		})
		var prevTarget game.Cell
		if act.Kind == game.Move {
			prevTarget = cellAt(act.To)
		}
		writes, reachedGoal := act.Writes(p.team, p.goal)
		for _, cw := range writes {
			id := cfg.ObjectOf(cw.Pos)
			data := game.EncodeCell(cw.Cell)
			_, v, _, err := p.st.WriteBy(id, data, -1)
			if err != nil {
				continue
			}
			out = append(out, xlist.ObjDiff{
				Obj:     id,
				Version: v,
				D:       fullState(data),
			})
			modified = true
		}
		switch {
		case reachedGoal:
			p.stats.ReachedGoal = true
			p.stats.Score += 5
			reached = true
		case act.Kind == game.Move:
			if prevTarget.Kind == game.Bonus {
				p.stats.Score++
			}
			next = append(next, tank.Advance(act))
		default:
			next = append(next, tank)
		}
	}
	if modified {
		p.stats.Mods++
		p.mc.AddMod()
	}
	p.tanks = next
	return out, reached
}

func fullState(data []byte) diff.Diff {
	cp := make([]byte, len(data))
	copy(cp, data)
	return diff.Diff{Replace: true, Len: len(cp), Runs: []diff.Run{{Off: 0, Data: cp}}}
}
