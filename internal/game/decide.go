package game

import "fmt"

// ActionKind classifies a tank's per-tick action.
type ActionKind uint8

// Action kinds.
const (
	// Stay makes no modification this tick (blocked, suppressed by
	// data-race arbitration, or nothing to do).
	Stay ActionKind = iota + 1
	// Move relocates the tank one block.
	Move
	// Fire destroys an adjacent enemy tank.
	Fire
)

// String implements fmt.Stringer.
func (k ActionKind) String() string {
	switch k {
	case Stay:
		return "stay"
	case Move:
		return "move"
	case Fire:
		return "fire"
	}
	return fmt.Sprintf("ActionKind(%d)", uint8(k))
}

// Action is one tank's decision for a tick.
type Action struct {
	Kind ActionKind
	// From and To describe a Move.
	From, To Pos
	// Target is the victim's block for a Fire.
	Target Pos
	// Suppressed marks a Stay imposed by data-race arbitration (the
	// paper's "process with the lowest ID is blocked").
	Suppressed bool
}

// View is everything a tank consults when deciding — state that every
// consistency protocol guarantees fresh at decision time:
//
//   - CellAt must be fresh for blocks within Config.Range of Self in the
//     four cardinal directions plus the four adjacent blocks ("at the very
//     least, all blocks within range have to be consistent when the
//     corresponding tank looks at the contents of those blocks", §4).
//   - Enemies must hold exact positions for enemy tanks within
//     Config.InteractionRadius of Self; entries farther away may be stale
//     and the decision logic never reads them.
//
// All positions reflect the previous tick's end state; every process
// decides from the same snapshot.
type View struct {
	Cfg     Config
	Team    int
	Self    Pos
	Goal    Pos
	CellAt  func(Pos) Cell
	Enemies map[int][]Pos
	// Prev is the block the tank occupied on the previous tick (equal to
	// Self if it has not moved). When no progress toward the goal is
	// possible the tank detours, avoiding an immediate return to Prev so
	// it escapes dead ends instead of oscillating. Prev is team-local
	// state, maintained identically by every protocol's driver.
	Prev Pos
}

// conflictRadius is the Manhattan distance within which two tanks can
// interact in a single tick (move into the same block, or fire).
const conflictRadius = 2

// moveDirs is Decide's fixed direction order: N, E, S, W.
var moveDirs = [4]Pos{{0, -1}, {1, 0}, {0, 1}, {-1, 0}}

// Decide computes the tank's action. It is deterministic and consults only
// the freshness-guaranteed parts of the view (see View).
func Decide(v View) Action {
	// confirmed reports whether the block at p really holds a live tank
	// of the given team. Beacon knowledge can outlive a tank (a victim's
	// process announces its death only on its next tick), so close-range
	// decisions re-validate against the block contents — which every
	// protocol keeps fresh within the interaction radius. In the
	// reference execution positions and cells always agree, so this
	// check is a no-op there.
	confirmed := func(team int, p Pos) bool {
		c := v.CellAt(p)
		return c.Kind == Tank && c.Team == team
	}

	// 1. Data-race arbitration without locks (paper §3.2): if an enemy
	// team with a higher ID has a tank close enough to interact this
	// tick, this process yields ("the process with the lowest ID is
	// blocked, while the other generates an event").
	for team, positions := range v.Enemies {
		if team <= v.Team {
			continue
		}
		for _, p := range positions {
			if v.Self.Manhattan(p) <= conflictRadius && confirmed(team, p) {
				return Action{Kind: Stay, Suppressed: true}
			}
		}
	}

	// 2. Fire at an adjacent enemy (all remaining interacting enemies
	// have lower IDs, so they are suppressed this tick and the victim's
	// block has a single writer). Deterministic target: lowest team ID,
	// then lowest object ID.
	target, haveTarget := Pos{}, false
	targetObj := 0
	for team := 0; team < v.Team; team++ {
		for _, p := range v.Enemies[team] {
			if v.Self.Manhattan(p) != 1 || !confirmed(team, p) {
				continue
			}
			obj := int(v.Cfg.ObjectOf(p))
			if !haveTarget || obj < targetObj {
				target, targetObj, haveTarget = p, obj, true
			}
		}
		if haveTarget {
			break
		}
	}
	if haveTarget {
		return Action{Kind: Fire, Target: target, From: v.Self}
	}

	// 3. Move greedily toward the goal through passable blocks. Adjacent
	// cells are within every protocol's freshness guarantee. Preference:
	// goal, then bonus, then empty; among equals, the block closest to
	// the goal; then fixed direction order (N, E, S, W).
	type candidate struct {
		to    Pos
		kind  CellKind
		score int
	}
	var backing [len(moveDirs)]candidate // one candidate a direction: no allocation
	cands := backing[:0]
	for _, d := range moveDirs {
		to := Pos{v.Self.X + d.X, v.Self.Y + d.Y}
		if !v.Cfg.InBounds(to) {
			continue
		}
		c := v.CellAt(to)
		var kindScore int
		switch c.Kind {
		case Goal:
			kindScore = 3
		case Bonus:
			kindScore = 2
		case Empty:
			kindScore = 1
		default:
			continue // bombs and tanks are impassable
		}
		// Closer to the goal is better; kind dominates distance, and a
		// bomb looming within visibility range down this corridor makes
		// the direction less attractive (this is where Range changes
		// behaviour — a far-sighted tank routes around minefields
		// earlier). Bombs are static, so these long-distance reads are
		// consistent under every protocol.
		score := kindScore*10000 - 8*to.Manhattan(v.Goal)
		for k := 2; k <= v.Cfg.Range; k++ {
			ahead := Pos{v.Self.X + d.X*k, v.Self.Y + d.Y*k}
			if !v.Cfg.InBounds(ahead) {
				break
			}
			if v.CellAt(ahead).Kind == Bomb {
				score -= v.Cfg.Range - k + 1
				break
			}
		}
		cands = append(cands, candidate{to: to, kind: c.Kind, score: score})
	}
	if len(cands) == 0 {
		return Action{Kind: Stay} // walled in
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.score > best.score {
			best = c
		}
	}
	// A goal, a bonus, or a step closer to the goal is always taken.
	if best.kind != Empty || best.to.Manhattan(v.Goal) < v.Self.Manhattan(v.Goal) {
		return Action{Kind: Move, From: v.Self, To: best.to}
	}
	// No progress possible: detour. Prefer any passable block other than
	// the one we just came from (so dead ends are escaped rather than
	// oscillated in); fall back to backtracking if that is the only way
	// out.
	detour, haveDetour := candidate{}, false
	for _, c := range cands {
		if c.to == v.Prev {
			continue
		}
		if !haveDetour || c.score > detour.score {
			detour, haveDetour = c, true
		}
	}
	if haveDetour {
		return Action{Kind: Move, From: v.Self, To: detour.to}
	}
	return Action{Kind: Move, From: v.Self, To: best.to}
}

// TankState is a tank's position plus the block it came from; every
// protocol driver (and the reference) maintains it identically so the
// detour rule in Decide is deterministic across executions.
type TankState struct {
	Pos  Pos
	Prev Pos
}

// NewTankState returns the state of a freshly placed tank.
func NewTankState(p Pos) TankState { return TankState{Pos: p, Prev: p} }

// Advance returns the tank state after an action: a move records the
// vacated block as Prev; anything else leaves the state untouched.
func (t TankState) Advance(a Action) TankState {
	if a.Kind == Move {
		return TankState{Pos: a.To, Prev: a.From}
	}
	return t
}

// Positions extracts the positions of a tank set (beacon payloads and
// s-function inputs).
func Positions(ts []TankState) []Pos {
	return AppendPositions(make([]Pos, 0, len(ts)), ts)
}

// AppendPositions appends the positions of a tank set to dst.
func AppendPositions(dst []Pos, ts []TankState) []Pos {
	for _, t := range ts {
		dst = append(dst, t.Pos)
	}
	return dst
}

// CellWrite is one block modification produced by applying an action.
type CellWrite struct {
	Pos  Pos
	Cell Cell
}

// Writes returns the block modifications an action implies. reachesGoal
// reports whether a Move lands on the goal: the arriving tank is removed
// from the board (so the goal stays reachable for other teams) and the
// caller marks the team finished.
func (a Action) Writes(team int, goal Pos) (writes []CellWrite, reachesGoal bool) {
	switch a.Kind {
	case Move:
		if a.To == goal {
			// Vacate the old block; the goal block itself is untouched.
			return []CellWrite{{Pos: a.From, Cell: Cell{Kind: Empty}}}, true
		}
		return []CellWrite{
			{Pos: a.From, Cell: Cell{Kind: Empty}},
			{Pos: a.To, Cell: Cell{Kind: Tank, Team: team}},
		}, false
	case Fire:
		return []CellWrite{{Pos: a.Target, Cell: Cell{Kind: Empty}}}, false
	default:
		return nil, false
	}
}
