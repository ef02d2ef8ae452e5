// Package central implements the client-server alternative the paper's
// §2.1 dismisses: "this physical memory may totally reside in some single
// server process, or be distributed physically across participating
// processes. For reasons of scalability and performance, we assume the
// physical distribution" — S-DSO exists because a central server does not
// scale. This package makes that motivation measurable.
//
// One extra process (ID = teams) holds the authoritative world. Each game
// tick a client pulls the fresh state of its visibility set (one request,
// one reply), decides locally, and submits its writes as an intent; the
// server validates the intent against the authoritative state (the move
// target must still be passable, the fire target still occupied) and
// applies or rejects it. All consistency is trivial — the server serializes
// everything — and all cost concentrates on the server's link, which the
// cluster model's per-NIC serialization turns into the expected bottleneck
// as the process count grows.
package central

import (
	"errors"
	"fmt"
	"time"

	"sdso/internal/diff"
	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/transport"
	"sdso/internal/wire"
	"sdso/internal/xlist"
)

// Message modes on KindObjReq/KindData distinguishing the central
// protocol's phases.
const (
	modePull    uint8 = 10 // client -> server: send me these objects
	modeIntent  uint8 = 11 // client -> server: apply these writes if valid
	modeState   uint8 = 12 // server -> client: object states
	modeVerdict uint8 = 13 // server -> client: intent accepted/rejected
)

// verdict flags in Msg.Stamp of a modeVerdict reply.
const (
	verdictRejected int64 = 0
	verdictAccepted int64 = 1
	verdictGameOver int64 = 2 // bit: some team has won
)

// ServerConfig configures the authoritative server process.
type ServerConfig struct {
	Game game.Config
	// Endpoint must have ID == Game.Teams (the server is the extra
	// process).
	Endpoint transport.Endpoint
	Metrics  *metrics.Collector
}

// RunServer serves the authoritative world until every client disconnects.
func RunServer(cfg ServerConfig) error {
	if cfg.Endpoint == nil {
		return errors.New("central: server requires an endpoint")
	}
	if cfg.Endpoint.ID() != cfg.Game.Teams {
		return fmt.Errorf("central: server endpoint ID %d, want %d", cfg.Endpoint.ID(), cfg.Game.Teams)
	}
	mc := cfg.Metrics
	if mc == nil {
		mc = metrics.NewCollector()
	}
	start, err := game.StartOf(cfg.Game)
	if err != nil {
		return err
	}
	st := start.NewStore()
	goal := start.Goal
	gameOver := false
	remaining := cfg.Game.Teams

	send := func(to int, m *wire.Msg) error {
		mc.CountSend(m, m.EncodedSize())
		return cfg.Endpoint.Send(to, m)
	}

	for remaining > 0 {
		m, err := cfg.Endpoint.Recv()
		if err != nil {
			if errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return fmt.Errorf("central server: %w", err)
		}
		switch {
		case m.Kind == wire.KindShutdown:
			remaining--
		case m.Kind == wire.KindObjReq && m.Mode == modePull:
			// Ints lists the requested object IDs; reply with their
			// states as a diff batch of replacements.
			diffs := make([]xlist.ObjDiff, 0, len(m.Ints))
			for _, id := range m.Ints {
				state, err := st.Get(store.ID(id))
				if err != nil {
					continue
				}
				ver, _ := st.Version(store.ID(id))
				diffs = append(diffs, xlist.ObjDiff{
					Obj: store.ID(id), Version: ver, D: newReplace(state),
				})
			}
			reply := &wire.Msg{
				Kind: wire.KindData, Mode: modeState, Stamp: m.Stamp,
				Payload: xlist.EncodeDiffs(diffs),
			}
			if err := send(int(m.Src), reply); err != nil {
				return err
			}
		case m.Kind == wire.KindData && m.Mode == modeIntent:
			verdict := verdictRejected
			// First-to-goal races crown exactly one winner: once somebody
			// has won, later intents are rejected outright so a second
			// goal claim in flight cannot also be accepted.
			raceDone := cfg.Game.EndOnFirstGoal && gameOver
			if !raceDone && applyIntent(cfg.Game, st, goal, m) {
				verdict = verdictAccepted
			}
			if intentReachesGoal(cfg.Game, st, goal, m) && verdict == verdictAccepted {
				gameOver = true
			}
			if gameOver {
				verdict |= verdictGameOver
			}
			reply := &wire.Msg{Kind: wire.KindObjReply, Mode: modeVerdict, Stamp: verdict, Obj: m.Obj}
			if err := send(int(m.Src), reply); err != nil {
				return err
			}
		}
	}
	return nil
}

// applyIntent validates a client's writes against the authoritative state
// and applies them if the underlying action is still legal.
func applyIntent(cfg game.Config, st *store.Store, goal game.Pos, m *wire.Msg) bool {
	diffs, err := xlist.DecodeDiffs(m.Payload)
	if err != nil {
		return false
	}
	// Validation: every block a tank moves into must still be passable;
	// every block being cleared must currently hold what the client
	// thinks (its tank, or a fire victim).
	for _, od := range diffs {
		cur, err := st.Get(od.Obj)
		if err != nil {
			return false
		}
		curCell, err := game.DecodeCell(cur)
		if err != nil {
			return false
		}
		newState, err := applyReplace(od)
		if err != nil {
			return false
		}
		newCell, err := game.DecodeCell(newState)
		if err != nil {
			return false
		}
		if newCell.Kind == game.Tank && !(curCell.Kind == game.Empty ||
			curCell.Kind == game.Bonus || curCell.Kind == game.Goal) {
			return false // target occupied meanwhile
		}
	}
	for _, od := range diffs {
		newState, _ := applyReplace(od)
		_, _, _, _ = st.WriteBy(od.Obj, newState, -1) // every object was looked up above
	}
	return true
}

// intentReachesGoal reports whether the intent's writes include vacating
// onto the goal (the Obj field carries the goal flag from the client).
func intentReachesGoal(cfg game.Config, st *store.Store, goal game.Pos, m *wire.Msg) bool {
	return m.Obj == 1
}

// newReplace wraps a full object state as a replacement diff.
func newReplace(state []byte) diff.Diff {
	cp := make([]byte, len(state))
	copy(cp, state)
	return diff.Diff{Replace: true, Len: len(cp), Runs: []diff.Run{{Off: 0, Data: cp}}}
}

// applyReplace extracts the full state a replacement diff carries.
func applyReplace(od xlist.ObjDiff) ([]byte, error) {
	return diff.Apply(nil, od.D)
}

// RunClient executes one team's game loop against the server.
type ClientConfig struct {
	Game           game.Config
	Endpoint       transport.Endpoint // ID in [0, teams)
	Metrics        *metrics.Collector
	ComputePerTick time.Duration
}

// RunClient plays one team through the central server.
func RunClient(cfg ClientConfig) (game.TeamStats, error) {
	if cfg.Endpoint == nil {
		return game.TeamStats{}, errors.New("central: client requires an endpoint")
	}
	team := cfg.Endpoint.ID()
	if team >= cfg.Game.Teams {
		return game.TeamStats{}, fmt.Errorf("central: client ID %d out of range", team)
	}
	mc := cfg.Metrics
	if mc == nil {
		mc = metrics.NewCollector()
	}
	server := cfg.Game.Teams
	start, err := game.StartOf(cfg.Game)
	if err != nil {
		return game.TeamStats{}, err
	}
	st := start.NewStore()
	goal := start.Goal
	var tanks []game.TankState
	for _, pos := range start.Tanks[team] {
		tanks = append(tanks, game.NewTankState(pos))
	}
	stats := game.TeamStats{Team: team}
	defer mc.SetExecTime(cfg.Endpoint.Now())

	send := func(m *wire.Msg) error {
		mc.CountSend(m, m.EncodedSize())
		return cfg.Endpoint.Send(server, m)
	}
	await := func(kind wire.Kind, mode uint8) (*wire.Msg, error) {
		for {
			m, err := cfg.Endpoint.Recv()
			if err != nil {
				return nil, err
			}
			if m.Kind == kind && m.Mode == mode {
				return m, nil
			}
		}
	}

	gameOver := false
	for tick := 1; tick <= cfg.Game.MaxTicks && !gameOver; tick++ {
		// Phase 1: pull the visibility set.
		t0 := cfg.Endpoint.Now()
		need := visibility(cfg.Game, tanks)
		pull := &wire.Msg{Kind: wire.KindObjReq, Mode: modePull, Stamp: int64(tick), Ints: need}
		if err := send(pull); err != nil {
			return stats, err
		}
		reply, err := await(wire.KindData, modeState)
		if err != nil {
			return stats, err
		}
		diffs, err := xlist.DecodeDiffs(reply.Payload)
		if err != nil {
			return stats, fmt.Errorf("central client %d: bad state reply: %w", team, err)
		}
		for _, od := range diffs {
			state, err := applyReplace(od)
			if err != nil {
				continue
			}
			_ = st.SetState(od.Obj, state, od.Version)
		}
		mc.AddTime(metrics.CatObjPull, cfg.Endpoint.Now()-t0)

		// Death check against the fresh pull.
		appStart := cfg.Endpoint.Now()
		alive := tanks[:0]
		for _, tank := range tanks {
			b, err := st.View(cfg.Game.ObjectOf(tank.Pos))
			if err != nil {
				continue
			}
			c, err := game.DecodeCell(b)
			if err == nil && c.Kind == game.Tank && c.Team == team {
				alive = append(alive, tank)
			}
		}
		tanks = alive
		if len(tanks) == 0 {
			if !stats.ReachedGoal {
				stats.Destroyed = true
			}
			stats.DoneTick = int64(tick)
			break
		}
		stats.Ticks++
		mc.AddTick()

		// Phase 2: decide on the snapshot and submit the intent.
		writes, reached, scored := decide(cfg.Game, st, goal, team, &tanks)
		mc.AddTime(metrics.CatAppCompute, cfg.Endpoint.Now()-appStart)
		if cfg.ComputePerTick > 0 {
			cfg.Endpoint.Compute(cfg.ComputePerTick)
			mc.AddTime(metrics.CatAppCompute, cfg.ComputePerTick)
		}
		if len(writes) > 0 {
			t1 := cfg.Endpoint.Now()
			intent := &wire.Msg{
				Kind: wire.KindData, Mode: modeIntent, Stamp: int64(tick),
				Payload: xlist.EncodeDiffs(writes),
			}
			if reached {
				intent.Obj = 1
			}
			if err := send(intent); err != nil {
				return stats, err
			}
			v, err := await(wire.KindObjReply, modeVerdict)
			if err != nil {
				return stats, err
			}
			mc.AddTime(metrics.CatExchange, cfg.Endpoint.Now()-t1)
			accepted := v.Stamp&verdictAccepted != 0
			if v.Stamp&verdictGameOver != 0 {
				gameOver = true
			}
			if accepted {
				stats.Mods++
				mc.AddMod()
				stats.Score += scored
				if reached {
					stats.ReachedGoal = true
					stats.Score += 5
					stats.DoneTick = int64(tick)
					break
				}
			} else {
				// Rejected: the world moved first; rebuild tank state
				// from our (still-fresh) snapshot next tick.
				tanks = rollbackTanks(cfg.Game, st, team)
			}
		}
		if cfg.Game.EndOnFirstGoal && gameOver {
			stats.DoneTick = int64(tick)
			break
		}
	}
	if stats.DoneTick == 0 {
		stats.DoneTick = int64(stats.Ticks)
	}
	_ = send(&wire.Msg{Kind: wire.KindShutdown, Stamp: int64(team)})
	return stats, nil
}

// visibility lists the objects a team needs fresh this tick.
func visibility(cfg game.Config, tanks []game.TankState) []int64 {
	seen := map[store.ID]bool{}
	add := func(p game.Pos) {
		if cfg.InBounds(p) {
			seen[cfg.ObjectOf(p)] = true
		}
	}
	dirs := []game.Pos{{X: 0, Y: -1}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: -1, Y: 0}}
	for _, tank := range tanks {
		add(tank.Pos)
		for _, d := range dirs {
			for k := 1; k <= cfg.InteractionRadius(); k++ {
				add(game.Pos{X: tank.Pos.X + d.X*k, Y: tank.Pos.Y + d.Y*k})
			}
		}
	}
	out := make([]int64, 0, len(seen))
	for id := range seen {
		out = append(out, int64(id))
	}
	return out
}

// decide runs the shared decision logic on the pulled snapshot and applies
// the writes to the local mirror, returning them as replacement diffs.
func decide(cfg game.Config, st *store.Store, goal game.Pos, team int, tanks *[]game.TankState) ([]xlist.ObjDiff, bool, int) {
	cellAt := func(p game.Pos) game.Cell {
		b, err := st.View(cfg.ObjectOf(p))
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
	dirs := []game.Pos{{X: 0, Y: -1}, {X: 1, Y: 0}, {X: 0, Y: 1}, {X: -1, Y: 0}}
	for _, tank := range *tanks {
		for _, d := range dirs {
			for k := 1; k <= cfg.InteractionRadius(); k++ {
				p := game.Pos{X: tank.Pos.X + d.X*k, Y: tank.Pos.Y + d.Y*k}
				if !cfg.InBounds(p) {
					break
				}
				if c := cellAt(p); c.Kind == game.Tank && c.Team != team {
					enemies[c.Team] = append(enemies[c.Team], p)
				}
			}
		}
	}
	var out []xlist.ObjDiff
	reached := false
	scored := 0
	var next []game.TankState
	for _, tank := range *tanks {
		act := game.Decide(game.View{
			Cfg: cfg, Team: team, Self: tank.Pos, Prev: tank.Prev,
			Goal: goal, CellAt: cellAt, Enemies: enemies,
		})
		var prevTarget game.Cell
		if act.Kind == game.Move {
			prevTarget = cellAt(act.To)
		}
		writes, reachedGoal := act.Writes(team, goal)
		for _, cw := range writes {
			id := cfg.ObjectOf(cw.Pos)
			data := game.EncodeCell(cw.Cell)
			_, v, _, err := st.WriteBy(id, data, -1)
			if err != nil {
				continue
			}
			out = append(out, xlist.ObjDiff{Obj: id, Version: v, D: newReplace(data)})
		}
		switch {
		case reachedGoal:
			reached = true
		case act.Kind == game.Move:
			if prevTarget.Kind == game.Bonus {
				scored++
			}
			next = append(next, tank.Advance(act))
		default:
			next = append(next, tank)
		}
	}
	*tanks = next
	return out, reached, scored
}

// rollbackTanks re-derives tank positions from the snapshot after a
// rejected intent (the optimistic local writes are overwritten by the next
// pull anyway; positions must not advance).
func rollbackTanks(cfg game.Config, st *store.Store, team int) []game.TankState {
	var out []game.TankState
	for i := 0; i < cfg.NumObjects(); i++ {
		b, err := st.View(store.ID(i))
		if err != nil {
			continue
		}
		c, err := game.DecodeCell(b)
		if err == nil && c.Kind == game.Tank && c.Team == team {
			out = append(out, game.NewTankState(cfg.PosOf(store.ID(i))))
		}
	}
	return out
}
