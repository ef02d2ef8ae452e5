package interest

// The map-based Index this package shipped before the dense one, moved here
// verbatim (names prefixed ref) as the differential oracle:
// TestIndexMatchesMapReference drives both through the same sequences and
// demands identical observations after every step.

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"sdso/internal/game"
)

type refCell struct{ cx, cy int }

// refObs is the last advertised state of one peer.
type refObs struct {
	tanks []game.Pos
	tick  int64
	cells []refCell
}

// refIndex maintains one player's interest set over the advertised
// positions of its peers. It is not safe for concurrent use; each
// player owns one.
type refIndex struct {
	cfg  Config
	side int // grid cell side = max(Radius, 1)

	peers   map[int]*refObs
	buckets map[refCell][]int
	members map[int]bool
	blind   map[int]bool // observed never or with unknown positions
}

// newRefIndex returns an empty index.
func newRefIndex(cfg Config) *refIndex {
	cfg = cfg.withDefaults()
	side := cfg.Radius
	if side < 1 {
		side = 1
	}
	return &refIndex{
		cfg:     cfg,
		side:    side,
		peers:   make(map[int]*refObs),
		buckets: make(map[refCell][]int),
		members: make(map[int]bool),
		blind:   make(map[int]bool),
	}
}

func (ix *refIndex) cellOf(p game.Pos) refCell {
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
	return refCell{x / ix.side, y / ix.side}
}

func (ix *refIndex) unbucket(peer int, o *refObs) {
	for _, c := range o.cells {
		ids := ix.buckets[c]
		for i, id := range ids {
			if id == peer {
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				break
			}
		}
		if len(ids) == 0 {
			delete(ix.buckets, c)
		} else {
			ix.buckets[c] = ids
		}
	}
	o.cells = o.cells[:0]
}

// Observe records peer's tank positions as advertised at tick. An empty
// position list marks the peer blind (unconditionally interesting):
// a peer whose whereabouts are unknown must keep receiving updates.
func (ix *refIndex) Observe(peer int, tanks []game.Pos, tick int64) {
	o := ix.peers[peer]
	if o == nil {
		o = &refObs{}
		ix.peers[peer] = o
	} else {
		ix.unbucket(peer, o)
	}
	o.tanks = append(o.tanks[:0], tanks...)
	o.tick = tick
	if len(tanks) == 0 {
		ix.blind[peer] = true
		return
	}
	delete(ix.blind, peer)
	seen := make(map[refCell]bool, len(tanks))
	for _, p := range tanks {
		c := ix.cellOf(p)
		if seen[c] {
			continue
		}
		seen[c] = true
		o.cells = append(o.cells, c)
		ix.buckets[c] = append(ix.buckets[c], peer)
	}
}

// Forget drops everything known about peer: it becomes blind, i.e.
// unconditionally interesting, until the next Observe. Use it when a
// peer joins or rejoins with unknown state.
func (ix *refIndex) Forget(peer int) {
	if o := ix.peers[peer]; o != nil {
		ix.unbucket(peer, o)
		delete(ix.peers, peer)
	}
	ix.blind[peer] = true
}

// Drop removes peer entirely (evicted or departed): not a member, not
// blind, never returned again.
func (ix *refIndex) Drop(peer int) {
	if o := ix.peers[peer]; o != nil {
		ix.unbucket(peer, o)
		delete(ix.peers, peer)
	}
	delete(ix.blind, peer)
	delete(ix.members, peer)
}

// Contains reports whether peer is currently interesting: in the
// hysteretic member set or blind.
func (ix *refIndex) Contains(peer int) bool {
	return ix.members[peer] || ix.blind[peer]
}

// Size returns the number of currently interesting peers.
func (ix *refIndex) Size() int {
	n := len(ix.members)
	for p := range ix.blind {
		if !ix.members[p] {
			n++
		}
	}
	return n
}

// dist returns the minimum Manhattan distance between self's tanks and
// o's advertised tanks.
func refDist(self []game.Pos, o *refObs) int {
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
func (ix *refIndex) drift(o *refObs, now int64) int {
	age := now - o.tick
	if age < 0 {
		age = 0
	}
	return int(age) * ix.cfg.MaxSpeed
}

// Refresh recomputes the interest set for a player whose own tanks sit
// at self, as of tick now. It returns the peers that entered and left
// the set this refresh. Blind peers are not members (they are covered
// by Contains separately) and never appear in either list.
func (ix *refIndex) Refresh(self []game.Pos, now int64) (entered, left []int) {
	// Exit pass: existing members leave once provably farther than
	// Radius + ExitSlack + drift.
	for peer := range ix.members {
		o := ix.peers[peer]
		if o == nil || len(o.tanks) == 0 {
			// Became blind or unknown; membership is moot.
			delete(ix.members, peer)
			continue
		}
		if len(self) == 0 {
			continue
		}
		if refDist(self, o) > ix.cfg.Radius+ix.cfg.ExitSlack+ix.drift(o, now) {
			delete(ix.members, peer)
			left = append(left, peer)
		}
	}
	if len(self) == 0 {
		return entered, left
	}
	// Enter pass: query the grid for candidate peers within
	// Radius + EnterSlack + maxDrift of any of our tanks, then confirm
	// with the exact per-peer drift-widened distance test. maxDrift uses
	// the stalest bucketed observation so the cell sweep over-approximates
	// every peer's own allowance.
	maxDrift := 0
	for peer, o := range ix.peers {
		if ix.blind[peer] || len(o.tanks) == 0 {
			continue
		}
		if d := ix.drift(o, now); d > maxDrift {
			maxDrift = d
		}
	}
	reach := ix.cfg.Radius + ix.cfg.EnterSlack + maxDrift
	span := (reach + ix.side - 1) / ix.side // cells per axis, each side
	seen := make(map[int]bool)
	for _, p := range self {
		c := ix.cellOf(p)
		for dx := -span; dx <= span; dx++ {
			for dy := -span; dy <= span; dy++ {
				for _, peer := range ix.buckets[refCell{c.cx + dx, c.cy + dy}] {
					if seen[peer] || ix.members[peer] {
						continue
					}
					seen[peer] = true
					o := ix.peers[peer]
					if refDist(self, o) <= ix.cfg.Radius+ix.cfg.EnterSlack+ix.drift(o, now) {
						ix.members[peer] = true
						entered = append(entered, peer)
					}
				}
			}
		}
	}
	// The lists are ascending, as Index.Refresh documents; sort so the map
	// iteration above never leaks nondeterminism downstream.
	sort.Ints(entered)
	sort.Ints(left)
	return entered, left
}

// TestIndexMatchesMapReference drives the dense Index and the map-based one
// it replaced through the same seeded random sequences of Observe / Forget /
// Drop / Refresh — positions inside and outside the world, empty tank lists,
// several tanks in one cell, beacons that move a peer within its cells and
// across them, bounded and unbounded worlds, peer ids arriving out of order
// so the slab grows mid-run — and demands the same entered and
// left lists, the same Contains for every id and the same Size after every
// step.
func TestIndexMatchesMapReference(t *testing.T) {
	const maxPeer, steps = 40, 600
	configs := []Config{
		{Width: 48, Height: 36, Radius: 3, EnterSlack: 2, ExitSlack: 6, MaxSpeed: 1},
		{Width: 20, Height: 64, Radius: 1},
		{Radius: 4, MaxSpeed: 2}, // unbounded: nothing is clamped from above
	}
	for ci, cfg := range configs {
		for seed := int64(1); seed <= 25; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := New(cfg), newRefIndex(cfg)
			w, h := cfg.Width, cfg.Height
			if w == 0 {
				w, h = 60, 60
			}
			randPos := func() game.Pos {
				// A margin either side of the world, so clamping is exercised.
				return game.Pos{X: rng.Intn(w+8) - 4, Y: rng.Intn(h+8) - 4}
			}
			randTanks := func(max int) []game.Pos {
				tanks := make([]game.Pos, rng.Intn(max+1))
				for i := range tanks {
					if i > 0 && rng.Intn(3) == 0 {
						tanks[i] = tanks[i-1] // the same cell twice
						tanks[i].X += rng.Intn(2)
						continue
					}
					tanks[i] = randPos()
				}
				return tanks
			}
			now := int64(0)
			last := make(map[int][]game.Pos) // each peer's previous beacon
			// Ids come from a window that widens as the run goes on.
			randPeer := func(step int) int { return rng.Intn(4 + step*maxPeer/steps) }
			for step := 0; step < steps; step++ {
				peer := randPeer(step)
				ctx := func() string { return fmt.Sprintf("config %d seed %d step %d peer %d", ci, seed, step, peer) }
				switch op := rng.Intn(20); {
				case op < 11:
					tanks := randTanks(3)
					if prev := last[peer]; len(prev) > 0 && rng.Intn(2) == 0 {
						// A beacon one step on: most tanks stay in their cells.
						tanks = slices.Clone(prev)
						for i := range tanks {
							tanks[i].X += rng.Intn(3) - 1
						}
					}
					last[peer] = tanks
					tick := now - int64(rng.Intn(3)) // beacons arrive a little stale
					got.Observe(peer, tanks, tick)
					want.Observe(peer, tanks, tick)
				case op < 13:
					got.Forget(peer)
					want.Forget(peer)
				case op < 15:
					got.Drop(peer)
					want.Drop(peer)
				default:
					now += int64(rng.Intn(3))
					self := randTanks(3)
					gotIn, gotOut := got.Refresh(self, now)
					wantIn, wantOut := want.Refresh(self, now)
					if !slices.Equal(gotIn, wantIn) || !slices.Equal(gotOut, wantOut) {
						t.Fatalf("%s: Refresh(%v, %d) = entered %v left %v, reference entered %v left %v",
							ctx(), self, now, gotIn, gotOut, wantIn, wantOut)
					}
				}
				if g, w := got.Size(), want.Size(); g != w {
					t.Fatalf("%s: Size = %d, reference %d", ctx(), g, w)
				}
				for id := -1; id <= maxPeer+4; id++ {
					if g, w := got.Contains(id), want.Contains(id); g != w {
						t.Fatalf("%s: Contains(%d) = %v, reference %v", ctx(), id, g, w)
					}
				}
			}
		}
	}
}
