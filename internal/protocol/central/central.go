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
	verdictGameOver int64 = 2 // bit: some team has won the race (EndOnFirstGoal)
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
	raceOver := false
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
			// goal claim in flight cannot also be accepted. Without a race
			// a win ends only the winner's game.
			if !raceOver && applyIntent(cfg.Game, st, goal, m) {
				verdict = verdictAccepted
				raceOver = cfg.Game.EndOnFirstGoal && intentReachesGoal(cfg.Game, st, goal, m)
			}
			if raceOver {
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
	turn, start, err := game.NewTeam(&cfg.Game, team)
	if err != nil {
		return game.TeamStats{}, err
	}
	// The client decides on its pulled snapshot, and its writes land there
	// optimistically, as the replacement diffs of the tick's intent.
	st := start.NewStore()
	var writes []xlist.ObjDiff
	turn.Replica = st
	write := func(id store.ID, state []byte) bool {
		_, v, _, err := st.WriteBy(id, state, -1)
		if err != nil {
			return false
		}
		writes = append(writes, xlist.ObjDiff{Obj: id, Version: v, D: newReplace(state)})
		return true
	}
	defer func() { mc.SetExecTime(cfg.Endpoint.Now()) }() // the clock at return

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

	raceOver := false
	for tick := 1; tick <= cfg.Game.MaxTicks; tick++ {
		// Phase 1: pull the visibility set.
		t0 := cfg.Endpoint.Now()
		visible := turn.AccessSet(cfg.Game.InteractionRadius())
		need := make([]int64, 0, len(visible))
		for _, a := range visible {
			need = append(need, int64(a.Obj))
		}
		pull := &wire.Msg{Kind: wire.KindObjReq, Mode: modePull, Stamp: int64(tick), Ints: need}
		if err := send(pull); err != nil {
			return turn.Stats, err
		}
		reply, err := await(wire.KindData, modeState)
		if err != nil {
			return turn.Stats, err
		}
		diffs, err := xlist.DecodeDiffs(reply.Payload)
		if err != nil {
			return turn.Stats, fmt.Errorf("central client %d: bad state reply: %w", team, err)
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
		if !turn.Begin(int64(tick)) {
			break
		}
		mc.Add(metrics.Ticks, 1)

		// Phase 2: decide on the snapshot and submit the intent.
		writes = writes[:0]
		enemies := make(map[int][]game.Pos)
		turn.ScanRays(enemies, cfg.Game.InteractionRadius())
		o := turn.Turn(enemies, write)
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
			if o.ReachedGoal {
				intent.Obj = 1
			}
			if err := send(intent); err != nil {
				return turn.Stats, err
			}
			v, err := await(wire.KindObjReply, modeVerdict)
			if err != nil {
				return turn.Stats, err
			}
			mc.AddTime(metrics.CatExchange, cfg.Endpoint.Now()-t1)
			accepted := v.Stamp&verdictAccepted != 0
			if v.Stamp&verdictGameOver != 0 {
				raceOver = true
			}
			if accepted {
				if turn.Credit(o) {
					mc.Add(metrics.Mods, 1)
				}
				if turn.Won(int64(tick)) {
					break
				}
			} else {
				// Rejected: the world moved first; rebuild tank state
				// from our (still-fresh) snapshot next tick.
				rollback(&turn)
			}
		}
		if raceOver {
			turn.Stats.DoneTick = int64(tick)
			break
		}
	}
	turn.Horizon(int64(turn.Stats.Ticks), false) // the snapshot is a tick old
	_ = send(&wire.Msg{Kind: wire.KindShutdown, Stamp: int64(team)})
	return turn.Stats, nil
}

// rollback re-derives the team's tanks from the snapshot after a rejected
// intent (the optimistic local writes are overwritten by the next pull
// anyway; positions must not advance).
func rollback(turn *game.Team) {
	var ps []game.Pos
	for i := 0; i < turn.Cfg.NumObjects(); i++ {
		pos := turn.Cfg.PosOf(store.ID(i))
		if c := turn.CellAt(pos); c.Kind == game.Tank && c.Team == turn.ID {
			ps = append(ps, pos)
		}
	}
	turn.Place(ps)
}
