package game

import (
	"cmp"
	"slices"

	"sdso/internal/store"
)

// Team is one team's side of a game as a protocol driver plays it: its
// tanks, its stats and its turn — the application logic every driver
// shares, kept apart from the driver's consistency machinery. A driver
// supplies the three things that differ between protocols: its Replica
// (where the team reads a block), the enemy picture it hands each Turn, and
// the function through which a Turn's writes land. It calls the team from
// one process at a time, with the blocks the calls read kept fresh as View
// requires. A driver holds its Team by value, and the turn reuses its
// scratch from tick to tick.
type Team struct {
	Cfg     *Config // the driver's, read only
	ID      int
	Goal    Pos // the goal block never moves; it is known even while hidden
	Tanks   []TankState
	Stats   TeamStats
	Replica *store.Store
	// Decided, when set, observes each decision a turn makes (test
	// instrumentation).
	Decided func(Action)

	access []Access
	state  [CellBytes]byte
}

// NewTeam returns team id of the game cfg describes, its tanks where the
// game's start places them, and the start, for the driver's replica.
func NewTeam(cfg *Config, id int) (Team, *Start, error) {
	start, err := StartOf(*cfg)
	if err != nil {
		return Team{}, nil, err
	}
	t := Team{Cfg: cfg, ID: id, Goal: start.Goal, Stats: TeamStats{Team: id}}
	t.Place(start.Tanks[id])
	return t, start, nil
}

// Place stands the team's tanks, freshly placed, on ps.
func (t *Team) Place(ps []Pos) {
	t.Tanks = t.Tanks[:0]
	for _, p := range ps {
		t.Tanks = append(t.Tanks, NewTankState(p))
	}
}

// CellAt reads the block at p in the replica. A block that cannot be read
// or decoded reads as a Bomb: impassable, and holding no tank.
func (t *Team) CellAt(p Pos) Cell {
	b, err := t.Replica.View(t.Cfg.ObjectOf(p))
	if err != nil {
		return Cell{Kind: Bomb}
	}
	c, err := DecodeCell(b)
	if err != nil {
		return Cell{Kind: Bomb}
	}
	return c
}

// HoldsTank reports whether the block at p in the replica holds a tank of
// team: the test that keeps a team's tank alive at Begin, and so the one a
// driver judges a peer's tanks by.
func (t *Team) HoldsTank(p Pos, team int) bool {
	c := t.CellAt(p)
	return c.Kind == Tank && c.Team == team
}

// refresh drops the tanks whose block no longer holds them (hit by enemy
// fire) and reports whether any remain.
func (t *Team) refresh() bool {
	alive := t.Tanks[:0]
	for _, tank := range t.Tanks {
		if t.HoldsTank(tank.Pos, t.ID) {
			alive = append(alive, tank)
		}
	}
	t.Tanks = alive
	return len(alive) > 0
}

// Begin opens the team's tick: the tanks hit since the last one are
// dropped and, when none remain, the team's game ends — destroyed, unless
// it reached the goal — at tick-1, whose death pass the reference ends it
// in. It reports whether the team plays the tick, which then counts as
// played.
func (t *Team) Begin(tick int64) bool {
	if !t.refresh() {
		t.Stats.Destroyed = !t.Stats.ReachedGoal
		t.Stats.DoneTick = tick - 1
		return false
	}
	t.Stats.Ticks++
	return true
}

// Outcome is what one turn did.
type Outcome struct {
	Modified    bool // a write landed
	ReachedGoal bool // a tank drove onto the goal and left the board
	Bonus       int  // bonus blocks driven onto
}

// Turn plays the team's tick on the enemy picture the driver hands it.
// Each tank in order decides, reads the block it moves to, lands its writes
// through write (state is valid only during the call) before the next tank
// decides, so a team's later tanks see its earlier tanks' moves, and then
// advances, or leaves the board at the goal.
func (t *Team) Turn(enemies map[int][]Pos, write func(id store.ID, state []byte) bool) Outcome {
	var o Outcome
	next := t.Tanks[:0] // in place: each tank is read before its slot is reused
	for _, tank := range t.Tanks {
		act := Decide(View{Cfg: *t.Cfg, Team: t.ID, Self: tank.Pos, Prev: tank.Prev,
			Goal: t.Goal, CellAt: t.CellAt, Enemies: enemies})
		if t.Decided != nil {
			t.Decided(act)
		}
		var target Cell
		if act.Kind == Move {
			target = t.CellAt(act.To)
		}
		writes, reached := act.Writes(t.ID, t.Goal)
		for _, w := range writes {
			t.state = encodeCell(w.Cell)
			if write(t.Cfg.ObjectOf(w.Pos), t.state[:]) {
				o.Modified = true
			}
		}
		switch {
		case reached:
			o.ReachedGoal = true
		case act.Kind == Move:
			if target.Kind == Bonus {
				o.Bonus++
			}
			next = append(next, tank.Advance(act))
		default:
			next = append(next, tank)
		}
	}
	t.Tanks = next
	return o
}

// Credit adds a turn's outcome to the team's stats — the one scoring rule:
// a modification when a write landed, a point a bonus, five for the goal.
// It reports whether the turn counted as a modification.
func (t *Team) Credit(o Outcome) bool {
	t.Stats.Score += o.Bonus
	if o.ReachedGoal {
		t.Stats.ReachedGoal = true
		t.Stats.Score += 5
	}
	if o.Modified {
		t.Stats.Mods++
	}
	return o.Modified
}

// Won reports whether the team's last tank has driven onto the goal, and
// if so ends the team's game at tick.
func (t *Team) Won(tick int64) bool {
	if !t.Stats.ReachedGoal || len(t.Tanks) > 0 {
		return false
	}
	t.Stats.DoneTick = tick
	return true
}

// Horizon ends at tick the game of a team that played to the last tick; a
// game that already ended keeps its DoneTick. fresh says the replica holds
// the last tick's writes (a final exchange or barrier landed them): the
// team's blocks are then read once more, and a team whose last tank was hit
// on the last tick is destroyed, as in the reference's end-of-tick death
// pass.
func (t *Team) Horizon(tick int64, fresh bool) {
	if t.Stats.DoneTick != 0 {
		return
	}
	t.Stats.DoneTick = tick
	if fresh && len(t.Tanks) > 0 && !t.refresh() {
		t.Stats.Destroyed = !t.Stats.ReachedGoal
	}
}

// ScanRays adds to enemies the enemy tanks on the blocks along each tank's
// four rays out to radius: a driver with no beacons knows enemies only from
// the blocks it holds fresh.
func (t *Team) ScanRays(enemies map[int][]Pos, radius int) {
	for _, tank := range t.Tanks {
		for _, d := range moveDirs {
			for k := 1; k <= radius; k++ {
				p := Pos{tank.Pos.X + d.X*k, tank.Pos.Y + d.Y*k}
				if !t.Cfg.InBounds(p) {
					break
				}
				if c := t.CellAt(p); c.Kind == Tank && c.Team != t.ID {
					enemies[c.Team] = append(enemies[c.Team], p)
				}
			}
		}
	}
}

// Access is one block of a team's access set.
type Access struct {
	Obj   store.ID
	Write bool // a tank may modify it: its own block or an adjacent one
}

// AccessSet returns the blocks the team's next turn reads: each tank's own
// block and the blocks along its four rays out to radius, the own and
// adjacent blocks marked Write. It is sorted by object, one entry a block
// (a write if any tank asked for one): the order lock-based drivers acquire
// in, the paper's total-order deadlock prevention. The result is the
// team's scratch, valid until the next call.
func (t *Team) AccessSet(radius int) []Access {
	out := t.access[:0]
	add := func(p Pos, write bool) {
		if t.Cfg.InBounds(p) {
			out = append(out, Access{Obj: t.Cfg.ObjectOf(p), Write: write})
		}
	}
	for _, tank := range t.Tanks {
		add(tank.Pos, true)
		for _, d := range moveDirs {
			for k := 1; k <= radius; k++ {
				add(Pos{tank.Pos.X + d.X*k, tank.Pos.Y + d.Y*k}, k == 1)
			}
		}
	}
	slices.SortFunc(out, func(a, b Access) int { return cmp.Compare(a.Obj, b.Obj) })
	k := 0
	for _, a := range out {
		if k > 0 && out[k-1].Obj == a.Obj {
			out[k-1].Write = out[k-1].Write || a.Write
			continue
		}
		out[k] = a
		k++
	}
	t.access = out[:k]
	return t.access
}
