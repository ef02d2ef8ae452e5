package game

import (
	"sync"

	"sdso/internal/store"
)

// Start is the start of a game: what the generator makes of a Config, in
// the forms the protocols consume. It is immutable — every player of a
// process reads the same one, so nothing may write through any field;
// whoever needs a board to change takes NewWorld's copy or NewStore's store.
type Start struct {
	Goal     Pos             // the block every team races toward
	Tanks    [][]Pos         // each team's tank positions, in object order
	Baseline *store.Baseline // the encoded cell of every block, by object ID

	cells []Cell // what NewWorld copies
}

// lastStart remembers the start of the last Config asked for: the n players
// of an in-process game ask for the same one back to back, and a different
// Config simply regenerates (DESIGN.md §15, "The start memo").
var lastStart struct {
	sync.Mutex
	cfg   Config
	start *Start
}

// StartOf returns the deterministic start of the game cfg describes.
func StartOf(cfg Config) (*Start, error) {
	lastStart.Lock() // held while generating: the other n-1 players wait for the one
	defer lastStart.Unlock()
	if lastStart.start != nil && lastStart.cfg == cfg {
		return lastStart.start, nil
	}
	w, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	st := &Start{Goal: w.Goal, Tanks: w.TanksByTeam(), Baseline: new(store.Baseline), cells: w.Cells}
	for i, c := range w.Cells {
		b := encodeCell(c)
		// Register cannot fail here: IDs are unique by construction.
		_ = st.Baseline.Register(store.ID(i), b[:])
	}
	lastStart.cfg, lastStart.start = cfg, st
	return st, nil
}

// NewStore returns a replica of the initial environment: a store over the
// start's baseline, which costs nothing per block until a block is written.
func (s *Start) NewStore() *store.Store {
	st := store.New()
	_ = st.RegisterAll(s.Baseline) // cannot fail: the store is empty
	return st
}
