// Package game implements the paper's evaluation application: a distributed
// multi-player tank game patterned after "Capture the Flag" (§2.1). The
// shared environment is a 2D grid of blocks, each block one shared object.
// A player maneuvers her team of tanks toward a known goal, picking up
// bonus items and avoiding bombs and enemy tanks; tanks within range of an
// enemy may fire.
//
// The package provides:
//
//   - the world model and its object encoding (world.go),
//   - the immutable start of a game, generated once per Config and shared
//     by every player of the process (start.go),
//   - the per-tick tank decision function, a pure function of state that
//     every consistency protocol keeps fresh (decide.go),
//   - the lockstep single-threaded reference simulation that the lookahead
//     protocols must reproduce exactly (reference.go), and
//   - the spatial/temporal semantic machinery: beacons, the
//     distance-halving s-function, and the MSYNC/MSYNC2 data filters
//     (sfunc.go).
package game

import (
	"fmt"
	"math/rand"
	"slices"

	"sdso/internal/store"
)

// CellKind is the content class of one block.
type CellKind uint8

// Cell kinds.
const (
	// Empty is an unoccupied block.
	Empty CellKind = iota + 1
	// Goal is the block every team races toward.
	Goal
	// Bonus is a pickup worth one point.
	Bonus
	// Bomb destroys any tank entering it; tanks treat it as impassable.
	Bomb
	// Tank is a block occupied by a team's tank.
	Tank
)

// String implements fmt.Stringer.
func (k CellKind) String() string {
	switch k {
	case Empty:
		return "empty"
	case Goal:
		return "goal"
	case Bonus:
		return "bonus"
	case Bomb:
		return "bomb"
	case Tank:
		return "tank"
	}
	return fmt.Sprintf("CellKind(%d)", uint8(k))
}

// Cell is the decoded state of one block object.
type Cell struct {
	Kind CellKind
	// Team identifies the owning team when Kind == Tank.
	Team int
}

// CellBytes is the encoded size of one block object. The two meaningful
// bytes are padded to eight so diffs exercise multi-byte runs.
const CellBytes = 8

// EncodeCell serializes a cell into a fresh slice.
func EncodeCell(c Cell) []byte {
	b := encodeCell(c)
	return b[:]
}

func encodeCell(c Cell) [CellBytes]byte {
	return [CellBytes]byte{byte(c.Kind), byte(c.Team)}
}

// DecodeCell parses an encoded cell.
func DecodeCell(b []byte) (Cell, error) {
	if len(b) != CellBytes {
		return Cell{}, fmt.Errorf("game: cell encoding has %d bytes, want %d", len(b), CellBytes)
	}
	k := CellKind(b[0])
	if k < Empty || k > Tank {
		return Cell{}, fmt.Errorf("game: invalid cell kind %d", b[0])
	}
	return Cell{Kind: k, Team: int(b[1])}, nil
}

// Pos is a block coordinate.
type Pos struct {
	X, Y int
}

// Manhattan returns the L1 distance between two positions.
func (p Pos) Manhattan(q Pos) int {
	return abs(p.X-q.X) + abs(p.Y-q.Y)
}

// Aligned reports whether two positions share a row or column.
func (p Pos) Aligned(q Pos) bool { return p.X == q.X || p.Y == q.Y }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Config describes one game instance. The zero value is not usable; use
// DefaultConfig and adjust.
type Config struct {
	// Width and Height are the grid dimensions in blocks. The paper's
	// experiments use 32x24.
	Width, Height int
	// Teams is the number of teams (= processes; one team per process).
	Teams int
	// TanksPerTeam is the team size; the paper's experiments fix it to 1.
	TanksPerTeam int
	// Range is how many blocks a tank sees in each of the four cardinal
	// directions (the paper evaluates 1 and 3).
	Range int
	// Bonuses and Bombs are how many of each to scatter.
	Bonuses, Bombs int
	// Seed drives deterministic placement and tie-breaking.
	Seed int64
	// MaxTicks bounds the game length.
	MaxTicks int
	// MinGoalDist keeps tank spawn points at least this Manhattan
	// distance from the goal, so races are non-trivial at every team
	// count. Zero means no constraint.
	MinGoalDist int
	// TraceWorlds makes RunReference keep a full world snapshot per tick
	// (debugging aid; costs memory).
	TraceWorlds bool
	// EndOnFirstGoal makes the game a race: it ends for every team at the
	// end of the first tick in which any team reaches the goal (the
	// paper's tanks race to "some known goal as quickly as possible").
	// Off, each team plays until its own goal/destruction/horizon — the
	// mode the cross-protocol equivalence tests use.
	EndOnFirstGoal bool
}

// DefaultConfig returns the paper's experimental configuration for the
// given team count and range.
func DefaultConfig(teams, visRange int) Config {
	return Config{
		Width:        32,
		Height:       24,
		Teams:        teams,
		TanksPerTeam: 1,
		Range:        visRange,
		Bonuses:      20,
		Bombs:        25,
		Seed:         1,
		MaxTicks:     500,
		MinGoalDist:  14,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Width < 4 || c.Height < 4:
		return fmt.Errorf("game: grid %dx%d too small", c.Width, c.Height)
	case c.Teams < 1:
		return fmt.Errorf("game: need at least one team, have %d", c.Teams)
	case c.TanksPerTeam < 1:
		return fmt.Errorf("game: need at least one tank per team")
	case c.Range < 1:
		return fmt.Errorf("game: range must be positive, have %d", c.Range)
	case c.MaxTicks < 1:
		return fmt.Errorf("game: MaxTicks must be positive")
	case c.Teams*c.TanksPerTeam+c.Bonuses+c.Bombs+1 > c.Width*c.Height/2:
		return fmt.Errorf("game: board too crowded")
	}
	return nil
}

// NumObjects returns the number of shared objects (blocks).
func (c Config) NumObjects() int { return c.Width * c.Height }

// ObjectOf maps a position to its shared-object ID.
func (c Config) ObjectOf(p Pos) store.ID { return store.ID(p.Y*c.Width + p.X) }

// PosOf maps a shared-object ID back to its position.
func (c Config) PosOf(id store.ID) Pos {
	return Pos{X: int(id) % c.Width, Y: int(id) / c.Width}
}

// InBounds reports whether p lies on the grid.
func (c Config) InBounds(p Pos) bool {
	return p.X >= 0 && p.X < c.Width && p.Y >= 0 && p.Y < c.Height
}

// InteractionRadius is the paper's distance d within which processes must
// know each other's exact tank positions: fire reaches `Range` blocks and
// movement collisions span two blocks, so freshness is needed within
// max(Range, 2).
func (c Config) InteractionRadius() int {
	if c.Range > 2 {
		return c.Range
	}
	return 2
}

// World is a decoded snapshot of the shared environment plus the derived
// tank index. It is a convenience for initialization, the reference
// simulation, and assertions; the protocols themselves operate on the
// object store.
type World struct {
	Cfg   Config
	Cells []Cell
	Goal  Pos
}

// NewWorld returns the deterministic initial world for cfg — goal, bonuses,
// bombs, and one tank per (team, slot) on distinct empty blocks — as a
// mutable copy of the game's start (see StartOf).
func NewWorld(cfg Config) (*World, error) {
	st, err := StartOf(cfg)
	if err != nil {
		return nil, err
	}
	return &World{Cfg: cfg, Cells: slices.Clone(st.cells), Goal: st.Goal}, nil
}

// generate places goal, bonuses, bombs, and one tank per (team, slot) with
// the seeded RNG on distinct empty blocks.
func generate(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &World{
		Cfg:   cfg,
		Cells: make([]Cell, cfg.NumObjects()),
	}
	for i := range w.Cells {
		w.Cells[i] = Cell{Kind: Empty}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	takeEmpty := func() Pos {
		for {
			p := Pos{X: rng.Intn(cfg.Width), Y: rng.Intn(cfg.Height)}
			if w.At(p).Kind == Empty {
				return p
			}
		}
	}
	w.Goal = takeEmpty()
	w.set(w.Goal, Cell{Kind: Goal})
	for i := 0; i < cfg.Bonuses; i++ {
		w.set(takeEmpty(), Cell{Kind: Bonus})
	}
	for i := 0; i < cfg.Bombs; i++ {
		w.set(takeEmpty(), Cell{Kind: Bomb})
	}
	takeSpawn := func() Pos {
		for tries := 0; ; tries++ {
			p := takeEmpty()
			if p.Manhattan(w.Goal) >= cfg.MinGoalDist || tries > 10000 {
				return p
			}
			// Not a valid spawn; leave the block empty and retry.
		}
	}
	for team := 0; team < cfg.Teams; team++ {
		for k := 0; k < cfg.TanksPerTeam; k++ {
			w.set(takeSpawn(), Cell{Kind: Tank, Team: team})
		}
	}
	return w, nil
}

// At returns the cell at p.
func (w *World) At(p Pos) Cell { return w.Cells[int(w.Cfg.ObjectOf(p))] }

func (w *World) set(p Pos, c Cell) { w.Cells[int(w.Cfg.ObjectOf(p))] = c }

// Set assigns the cell at p (exported for tests building scenarios).
func (w *World) Set(p Pos, c Cell) { w.set(p, c) }

// TankPositions returns each team's tank positions (alive tanks only),
// scanning in object order so the result is deterministic.
func (w *World) TankPositions() map[int][]Pos {
	out := make(map[int][]Pos)
	for i, c := range w.Cells {
		if c.Kind == Tank {
			out[c.Team] = append(out[c.Team], w.Cfg.PosOf(store.ID(i)))
		}
	}
	return out
}

// TanksByTeam is TankPositions as a table indexed by team. The per-team
// lists are carved from one backing array, each clipped to its own length,
// so building the picture of a 128-team board costs three allocations.
func (w *World) TanksByTeam() [][]Pos {
	counts := make([]int, w.Cfg.Teams)
	total := 0
	for _, c := range w.Cells {
		if c.Kind == Tank && c.Team < len(counts) {
			counts[c.Team]++
			total++
		}
	}
	out := make([][]Pos, len(counts))
	backing := make([]Pos, total)
	for team, n := range counts {
		out[team], backing = backing[:0:n], backing[n:]
	}
	for i, c := range w.Cells {
		if c.Kind == Tank && c.Team < len(counts) {
			out[c.Team] = append(out[c.Team], w.Cfg.PosOf(store.ID(i)))
		}
	}
	return out
}

// Encode writes every cell into a fresh object store of its own (a process's
// initial replica is Start.NewStore, which registers nothing per block).
func (w *World) Encode() *store.Store {
	st := store.New()
	for i, c := range w.Cells {
		// Register cannot fail here: IDs are unique by construction.
		_ = st.Register(store.ID(i), EncodeCell(c))
	}
	return st
}

// DecodeWorld reconstructs a World snapshot from an object store.
func DecodeWorld(cfg Config, st *store.Store) (*World, error) {
	w := &World{Cfg: cfg, Cells: make([]Cell, cfg.NumObjects())}
	goalSeen := false
	for i := 0; i < cfg.NumObjects(); i++ {
		b, err := st.View(store.ID(i))
		if err != nil {
			return nil, fmt.Errorf("decode world: %w", err)
		}
		c, err := DecodeCell(b)
		if err != nil {
			return nil, fmt.Errorf("object %d: %w", i, err)
		}
		w.Cells[i] = c
		if c.Kind == Goal {
			w.Goal = cfg.PosOf(store.ID(i))
			goalSeen = true
		}
	}
	if !goalSeen {
		// The goal block may be temporarily hidden under a tank; the
		// caller tracks the goal position separately in that case.
		w.Goal = Pos{-1, -1}
	}
	return w, nil
}

// String renders the world as ASCII art (tests and the CLI demo).
func (w *World) String() string {
	out := make([]byte, 0, (w.Cfg.Width+1)*w.Cfg.Height)
	for y := 0; y < w.Cfg.Height; y++ {
		for x := 0; x < w.Cfg.Width; x++ {
			c := w.At(Pos{x, y})
			switch c.Kind {
			case Empty:
				out = append(out, '.')
			case Goal:
				out = append(out, 'G')
			case Bonus:
				out = append(out, '$')
			case Bomb:
				out = append(out, '*')
			case Tank:
				out = append(out, byte('0'+c.Team%10))
			}
		}
		out = append(out, '\n')
	}
	return string(out)
}
