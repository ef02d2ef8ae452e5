// Package interest maintains per-player interest sets over a
// grid-bucketed spatial index of the world.
//
// The paper's spatial constraint says a player only needs updates for
// objects within its sensing radius d. This package turns that bound
// into an exchange-fanout filter: every peer's last advertised tank
// positions are bucketed into grid cells of side d, and each tick the
// player refreshes its interest set by querying only the cells its own
// tanks can reach — O(neighbors) work instead of O(n) pairwise
// distance tests.
//
// Membership is hysteretic: a peer enters the set when it comes within
// d + EnterSlack and leaves only once it is farther than d + ExitSlack
// (ExitSlack > EnterSlack), so sets churn on region crossings rather
// than every step. Both thresholds are widened by the staleness of the
// peer's advertised positions times MaxSpeed, bounding how far the peer
// may have drifted since its last beacon. Peers with no observation yet
// are unconditionally interesting — safety degrades to full fanout, not
// to silence.
//
// Memory. Peers are small dense integers, so the index is three slabs and
// nothing per peer (DESIGN.md §15, the bookkeeping rule): the per-peer
// records indexed by id, one sorted list of occupied (cell, peer) pairs
// standing for the grid's buckets, and an arena the peers' tank lists are
// carved from. Once every peer has been seen, Observe and Refresh allocate
// nothing.
package interest

import (
	"cmp"
	"slices"

	"sdso/internal/game"
)

// Config parameterizes an Index. Radius is the sensing radius d
// (required, > 0); the rest default sensibly from it.
type Config struct {
	// Width and Height bound the world; positions outside are clamped
	// into range when bucketed.
	Width, Height int
	// Radius is the sensing radius d in blocks (Manhattan metric, like
	// the s-function machinery).
	Radius int
	// EnterSlack widens the radius at which a peer becomes interesting.
	// Defaults to 2.
	EnterSlack int
	// ExitSlack widens the radius below which a peer must come back to
	// stay interesting once it is in the set. Must exceed EnterSlack for
	// hysteresis; defaults to EnterSlack + 4.
	ExitSlack int
	// MaxSpeed bounds how many blocks any tank moves per tick; it scales
	// the staleness drift allowance. Defaults to 1.
	MaxSpeed int
}

func (c Config) withDefaults() Config {
	if c.Radius <= 0 {
		c.Radius = 1
	}
	if c.EnterSlack <= 0 {
		c.EnterSlack = 2
	}
	if c.ExitSlack <= c.EnterSlack {
		c.ExitSlack = c.EnterSlack + 4
	}
	if c.MaxSpeed <= 0 {
		c.MaxSpeed = 1
	}
	return c
}

type cell struct{ cx, cy int }

// obs is one peer's record: its last advertised state and its standing in
// the interest set.
type obs struct {
	tanks  []game.Pos // carved from the index's arena, capacity reused
	tick   int64
	tested int64 // the Refresh that last ran the enter test on the peer
	member bool  // in the hysteretic set
	blind  bool  // observed never or with unknown positions
}

// occupant is one bucket entry: peer advertised a tank in cell c.
type occupant struct {
	c    cell
	peer int
}

// compareOccupants orders bucket entries row by row, so the cells a sweep
// visits in one row are one contiguous run.
func compareOccupants(a, b occupant) int {
	if a.c.cy != b.c.cy {
		return cmp.Compare(a.c.cy, b.c.cy)
	}
	if a.c.cx != b.c.cx {
		return cmp.Compare(a.c.cx, b.c.cx)
	}
	return cmp.Compare(a.peer, b.peer)
}

// Tank lists are carved from chunks that double up to a cap, like the
// store's registration arenas.
const (
	firstTankChunk = 16
	maxTankChunk   = 1024
)

// Index maintains one player's interest set over the advertised
// positions of its peers. Peers are identified by small non-negative
// integers. It is not safe for concurrent use; each player owns one.
type Index struct {
	cfg  Config
	side int // grid cell side = max(Radius, 1)

	peers []obs      // indexed by peer id, grown by doubling to the highest seen
	grid  []occupant // every bucket's entries, sorted by compareOccupants
	size  int        // peers that are members or blind

	// The tank arena: the unused tail of the current chunk and the size it
	// was allocated with.
	arena []game.Pos
	chunk int

	refreshes           int64 // Refresh calls so far (obs.tested's clock)
	enteredBuf, leftBuf []int // Refresh's result buffers
}

// New returns an empty index.
func New(cfg Config) *Index {
	cfg = cfg.withDefaults()
	side := cfg.Radius
	if side < 1 {
		side = 1
	}
	return &Index{cfg: cfg, side: side}
}

func (ix *Index) cellOf(p game.Pos) cell {
	x, y := p.X, p.Y
	if x < 0 {
		x = 0
	}
	if ix.cfg.Width > 0 && x >= ix.cfg.Width {
		x = ix.cfg.Width - 1
	}
	if y < 0 {
		y = 0
	}
	if ix.cfg.Height > 0 && y >= ix.cfg.Height {
		y = ix.cfg.Height - 1
	}
	return cell{x / ix.side, y / ix.side}
}

// at returns peer's record, growing the slab to hold it.
func (ix *Index) at(peer int) *obs {
	if peer >= len(ix.peers) {
		grown := make([]obs, max(peer+1, 2*len(ix.peers)))
		copy(grown, ix.peers)
		ix.peers = grown
	}
	return &ix.peers[peer]
}

// lookup returns peer's record, nil for a peer the index never heard of.
func (ix *Index) lookup(peer int) *obs {
	if peer < 0 || peer >= len(ix.peers) {
		return nil
	}
	return &ix.peers[peer]
}

// mark sets o's standing and keeps the interesting-peer count.
func (ix *Index) mark(o *obs, member, blind bool) {
	was := o.member || o.blind
	o.member, o.blind = member, blind
	switch is := member || blind; {
	case is && !was:
		ix.size++
	case was && !is:
		ix.size--
	}
}

// firstIn reports whether tanks[i] is the first of tanks in its cell: a
// peer occupies each cell once however many of its tanks share it.
func (ix *Index) firstIn(tanks []game.Pos, i int) (cell, bool) {
	c := ix.cellOf(tanks[i])
	for _, p := range tanks[:i] {
		if ix.cellOf(p) == c {
			return c, false
		}
	}
	return c, true
}

// bucket enters peer's advertised tanks into the grid.
func (ix *Index) bucket(peer int, o *obs) {
	for i := range o.tanks {
		if c, first := ix.firstIn(o.tanks, i); first {
			e := occupant{c, peer}
			at, _ := slices.BinarySearchFunc(ix.grid, e, compareOccupants)
			ix.grid = slices.Insert(ix.grid, at, e)
		}
	}
}

// unbucket takes peer's advertised tanks out of the grid and forgets them.
func (ix *Index) unbucket(peer int, o *obs) {
	for i := range o.tanks {
		if c, first := ix.firstIn(o.tanks, i); first {
			if at, ok := slices.BinarySearchFunc(ix.grid, occupant{c, peer}, compareOccupants); ok {
				ix.grid = slices.Delete(ix.grid, at, at+1)
			}
		}
	}
	o.tanks = o.tanks[:0]
}

// keep copies tanks into dst's capacity, carving a new list from the arena
// when it does not fit.
func (ix *Index) keep(dst, tanks []game.Pos) []game.Pos {
	if len(tanks) > cap(dst) {
		if len(tanks) > len(ix.arena) {
			ix.chunk = max(len(tanks), min(max(2*ix.chunk, firstTankChunk), maxTankChunk))
			ix.arena = make([]game.Pos, ix.chunk)
		}
		dst = ix.arena[:0:len(tanks)]
		ix.arena = ix.arena[len(tanks):]
	}
	return append(dst[:0], tanks...)
}

// Observe records peer's tank positions as advertised at tick. An empty
// position list marks the peer blind (unconditionally interesting):
// a peer whose whereabouts are unknown must keep receiving updates.
func (ix *Index) Observe(peer int, tanks []game.Pos, tick int64) {
	o := ix.at(peer)
	o.tick = tick
	// A tank moves a block a tick and a cell is Radius blocks wide: most
	// beacons leave every tank in its cell, and the buckets stand.
	moved := !ix.sameCells(o.tanks, tanks)
	if moved {
		ix.unbucket(peer, o)
	}
	o.tanks = ix.keep(o.tanks, tanks)
	ix.mark(o, o.member, len(tanks) == 0)
	if moved {
		ix.bucket(peer, o)
	}
}

// sameCells reports whether b puts every tank in the cell a has it in.
func (ix *Index) sameCells(a, b []game.Pos) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if ix.cellOf(a[i]) != ix.cellOf(b[i]) {
			return false
		}
	}
	return true
}

// Forget drops everything known about peer: it becomes blind, i.e.
// unconditionally interesting, until the next Observe. Use it when a
// peer joins or rejoins with unknown state.
func (ix *Index) Forget(peer int) {
	o := ix.at(peer)
	ix.unbucket(peer, o)
	ix.mark(o, o.member, true)
}

// Drop removes peer entirely (evicted or departed): not a member, not
// blind, never returned again.
func (ix *Index) Drop(peer int) {
	if o := ix.lookup(peer); o != nil {
		ix.unbucket(peer, o)
		ix.mark(o, false, false)
	}
}

// Contains reports whether peer is currently interesting: in the
// hysteretic member set or blind.
func (ix *Index) Contains(peer int) bool {
	o := ix.lookup(peer)
	return o != nil && (o.member || o.blind)
}

// Size returns the number of currently interesting peers.
func (ix *Index) Size() int { return ix.size }

// dist returns the minimum Manhattan distance between self's tanks and
// o's advertised tanks.
func dist(self []game.Pos, o *obs) int {
	best := int(^uint(0) >> 1)
	for _, a := range self {
		for _, b := range o.tanks {
			if d := a.Manhattan(b); d < best {
				best = d
			}
		}
	}
	return best
}

// drift bounds how far o's tanks may have moved since their beacon.
func (ix *Index) drift(o *obs, now int64) int {
	age := now - o.tick
	if age < 0 {
		age = 0
	}
	return int(age) * ix.cfg.MaxSpeed
}

// Refresh recomputes the interest set for a player whose own tanks sit
// at self, as of tick now. It returns the peers that entered and left
// the set this refresh, each ascending. Blind peers are not members (they
// are covered by Contains separately) and never appear in either list.
// The lists are the index's own buffers, valid until the next Refresh.
// They only report membership churn: entering the set triggers no
// traffic, since the gate reads Contains at each flush decision.
func (ix *Index) Refresh(self []game.Pos, now int64) (entered, left []int) {
	entered, left = ix.enteredBuf[:0], ix.leftBuf[:0]
	// One pass over the slab. Exit: existing members leave once provably
	// farther than Radius + ExitSlack + drift. And the stalest bucketed
	// observation, for the enter pass below.
	maxDrift := 0
	for peer := range ix.peers {
		o := &ix.peers[peer]
		if len(o.tanks) == 0 {
			// Blind or unknown; membership is moot.
			ix.mark(o, false, o.blind)
			continue
		}
		if len(self) == 0 {
			continue
		}
		d := ix.drift(o, now)
		if d > maxDrift {
			maxDrift = d
		}
		if o.member && dist(self, o) > ix.cfg.Radius+ix.cfg.ExitSlack+d {
			ix.mark(o, false, false)
			left = append(left, peer)
		}
	}
	ix.leftBuf = left
	if len(self) == 0 {
		return entered, left
	}
	// Enter pass: query the grid for candidate peers within
	// Radius + EnterSlack + maxDrift of any of our tanks, then confirm
	// with the exact per-peer drift-widened distance test. maxDrift uses
	// the stalest bucketed observation so the cell sweep over-approximates
	// every peer's own allowance. Cells are never negative, so rows above
	// the grid are skipped; a row's cells are one run of the sorted list.
	reach := ix.cfg.Radius + ix.cfg.EnterSlack + maxDrift
	span := (reach + ix.side - 1) / ix.side // cells per axis, each side
	ix.refreshes++
	for _, p := range self {
		c := ix.cellOf(p)
		for cy := max(c.cy-span, 0); cy <= c.cy+span; cy++ {
			at, _ := slices.BinarySearchFunc(ix.grid, occupant{cell{c.cx - span, cy}, -1}, compareOccupants)
			for ; at < len(ix.grid); at++ {
				e := ix.grid[at]
				if e.c.cy != cy || e.c.cx > c.cx+span {
					break
				}
				o := &ix.peers[e.peer]
				if o.tested == ix.refreshes || o.member {
					continue
				}
				o.tested = ix.refreshes
				if dist(self, o) <= ix.cfg.Radius+ix.cfg.EnterSlack+ix.drift(o, now) {
					ix.mark(o, true, false)
					entered = append(entered, e.peer)
				}
			}
		}
	}
	// Sorted, so a caller that walks the lists does so in peer order.
	slices.Sort(entered)
	ix.enteredBuf = entered
	return entered, left
}
