// Package interest maintains per-player interest sets over the peers'
// advertised tank positions.
//
// The paper's spatial constraint says a player only needs updates for
// objects within its sensing radius d. This package turns that bound
// into an exchange-fanout filter: each tick the player refreshes its
// interest set with one pass over its peers' last advertised positions.
//
// Membership is hysteretic: a peer enters the set when it comes within
// d + enterSlack and leaves only once it is farther than d + exitSlack,
// so sets churn on region crossings rather than every step. Both
// thresholds are widened by the age of the peer's advertised positions in
// ticks, since a tank moves at most one block a tick. Peers with no
// observation yet are unconditionally interesting — safety degrades to
// full fanout, not to silence.
//
// Memory. Peers are small dense integers, so the index is two slabs and
// nothing per peer (DESIGN.md §15, the bookkeeping rule): the per-peer
// records indexed by id, and an arena the peers' tank lists are carved
// from. Once every peer has been seen, Observe and Refresh allocate
// nothing.
package interest

import "sdso/internal/game"

// Config parameterizes an Index.
type Config struct {
	// Width and Height are the world's size; the index does not read them.
	Width, Height int
	// Radius is the sensing radius d in blocks (Manhattan metric, like
	// the s-function machinery); below 1 it is 1.
	Radius int
}

// The hysteresis band: a peer enters within Radius + enterSlack and
// leaves beyond Radius + exitSlack.
const (
	enterSlack = 2
	exitSlack  = 6
)

// obs is one peer's record: its last advertised state and its standing in
// the interest set.
type obs struct {
	tanks  []game.Pos // carved from the index's arena, capacity reused
	tick   int64
	member bool // in the hysteretic set
	blind  bool // observed never or with unknown positions
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
	radius int
	peers  []obs // indexed by peer id, grown by doubling to the highest seen
	size   int   // peers that are members or blind

	// The tank arena: the unused tail of the current chunk and the size it
	// was allocated with.
	arena []game.Pos
	chunk int

	enteredBuf, leftBuf []int // Refresh's result buffers
}

// New returns an empty index.
func New(cfg Config) *Index {
	return &Index{radius: max(cfg.Radius, 1)}
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
	o.tanks = ix.keep(o.tanks, tanks)
	ix.mark(o, o.member, len(tanks) == 0)
}

// Forget drops everything known about peer: it becomes blind, i.e.
// unconditionally interesting, until the next Observe. Use it when a
// peer joins or rejoins with unknown state.
func (ix *Index) Forget(peer int) {
	o := ix.at(peer)
	o.tanks = o.tanks[:0]
	ix.mark(o, o.member, true)
}

// Drop removes peer entirely (evicted or departed): not a member, not
// blind, never returned again.
func (ix *Index) Drop(peer int) {
	if o := ix.lookup(peer); o != nil {
		o.tanks = o.tanks[:0]
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

// within reports whether one of o's advertised tanks is within
// Radius + slack of one of self's, widened by the observation's age: a
// tank moves at most one block a tick.
func (ix *Index) within(self []game.Pos, o *obs, now int64, slack int) bool {
	reach := ix.radius + slack + int(max(now-o.tick, 0))
	for _, a := range self {
		for _, b := range o.tanks {
			if a.Manhattan(b) <= reach {
				return true
			}
		}
	}
	return false
}

// Refresh recomputes the interest set for a player whose own tanks sit
// at self, as of tick now, in one pass over the peers. It returns the
// peers that entered and left the set this refresh, each ascending. Blind
// peers are not members (they are covered by Contains separately) and
// never appear in either list. The lists are the index's own buffers,
// valid until the next Refresh. They only report membership churn:
// entering the set triggers no traffic, since the gate reads Contains at
// each flush decision.
func (ix *Index) Refresh(self []game.Pos, now int64) (entered, left []int) {
	entered, left = ix.enteredBuf[:0], ix.leftBuf[:0]
	for peer := range ix.peers {
		o := &ix.peers[peer]
		switch {
		case len(o.tanks) == 0:
			// Blind or unknown; membership is moot.
			ix.mark(o, false, o.blind)
		case len(self) == 0:
		case o.member:
			if !ix.within(self, o, now, exitSlack) {
				ix.mark(o, false, false)
				left = append(left, peer)
			}
		case ix.within(self, o, now, enterSlack):
			ix.mark(o, true, false)
			entered = append(entered, peer)
		}
	}
	ix.enteredBuf, ix.leftBuf = entered, left
	return entered, left
}
