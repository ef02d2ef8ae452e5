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

	st     *store.Store
	vc     clock.Vector
	tick   int64
	turn   game.Team
	writes []xlist.ObjDiff // the tick's writes, as replace diffs

	// Causal delivery machinery.
	pending  []*wire.Msg   // updates not yet causally deliverable
	tickSeen map[int]int64 // peer -> latest update tick delivered
	peerDone map[int]bool
	gameOver bool
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
	}
	turn, start, err := game.NewTeam(&p.cfg.Game, p.team)
	if err != nil {
		return game.TeamStats{}, err
	}
	p.turn, p.st = turn, start.NewStore()
	p.turn.Replica = p.st
	err = p.play()
	mc.SetExecTime(cfg.Endpoint.Now())
	return p.turn.Stats, err
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
			p.turn.Stats.DoneTick = tick
			return p.finish(false)
		}
		appStart := p.ep.Now()
		if !p.turn.Begin(tick) {
			return p.finish(false)
		}
		p.mc.AddTick()

		p.writes = p.writes[:0]
		if p.turn.Credit(p.turn.Turn(p.boardEnemies(), p.write)) {
			p.mc.AddMod()
		}
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
			Payload: xlist.EncodeDiffs(p.writes),
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

		if p.turn.Won(tick) {
			return p.finish(true)
		}
	}
	// The last barrier landed the last tick's writes. Every live peer ends
	// at this tick too, so no one is owed a DONE.
	p.turn.Horizon(int64(p.turn.Stats.Ticks), true)
	return nil
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

// finish announces an early departure to all live peers.
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

// boardEnemies returns the turn's enemy picture. With a per-tick barrier
// the whole replica is fresh, and causal memory has no beacons: enemy
// positions come from a scan of every block.
func (p *player) boardEnemies() map[int][]game.Pos {
	cfg := p.cfg.Game
	enemies := make(map[int][]game.Pos)
	for i := 0; i < cfg.NumObjects(); i++ {
		pos := cfg.PosOf(store.ID(i))
		if c := p.turn.CellAt(pos); c.Kind == game.Tank && c.Team != p.team {
			enemies[c.Team] = append(enemies[c.Team], pos)
		}
	}
	return enemies
}

// write lands one of the turn's writes in the replica and keeps it, as a
// replace diff, for the tick's causal broadcast.
func (p *player) write(id store.ID, state []byte) bool {
	_, v, _, err := p.st.WriteBy(id, state, -1)
	if err != nil {
		return false
	}
	p.writes = append(p.writes, xlist.ObjDiff{Obj: id, Version: v, D: fullState(state)})
	return true
}

func fullState(data []byte) diff.Diff {
	cp := make([]byte, len(data))
	copy(cp, data)
	return diff.Diff{Replace: true, Len: len(cp), Runs: []diff.Run{{Off: 0, Data: cp}}}
}
