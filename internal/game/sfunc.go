package game

import (
	"fmt"

	"sdso/internal/store"
)

// Beacon is the small coordination payload each process attaches to its
// SYNC messages at a rendezvous (carried in wire.Msg.Ints). It publishes
// the sender's exact tank positions — the inputs both rendezvous partners
// feed to the s-function, keeping the pairwise schedule symmetric — plus
// the bounding box of modifications still buffered (unsent) for the
// receiving peer, which lets both sides schedule a rendezvous before the
// peer's tanks walk into stale territory.
type Beacon struct {
	Tanks []Pos
	// Box bounds the sender's buffered-but-unsent modifications for the
	// receiver; nil when nothing is buffered.
	Box *Box
}

// Box is an inclusive rectangle of block coordinates.
type Box struct {
	MinX, MinY, MaxX, MaxY int
}

// Add grows the box to include p.
func (b *Box) Add(p Pos) {
	if p.X < b.MinX {
		b.MinX = p.X
	}
	if p.X > b.MaxX {
		b.MaxX = p.X
	}
	if p.Y < b.MinY {
		b.MinY = p.Y
	}
	if p.Y > b.MaxY {
		b.MaxY = p.Y
	}
}

// BoxOfObjectsInto stores the bounding box of a set of object IDs in (and
// returns it as) *box, or returns nil if the set is empty.
func BoxOfObjectsInto(box *Box, cfg Config, ids []store.ID) *Box {
	if len(ids) == 0 {
		return nil
	}
	p := cfg.PosOf(ids[0])
	*box = Box{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
	for _, id := range ids[1:] {
		box.Add(cfg.PosOf(id))
	}
	return box
}

// Dist returns the Manhattan distance from p to the box (zero if inside).
func (b *Box) Dist(p Pos) int {
	dx := 0
	if p.X < b.MinX {
		dx = b.MinX - p.X
	} else if p.X > b.MaxX {
		dx = p.X - b.MaxX
	}
	dy := 0
	if p.Y < b.MinY {
		dy = b.MinY - p.Y
	} else if p.Y > b.MaxY {
		dy = p.Y - b.MaxY
	}
	return dx + dy
}

// EncodeBeacon flattens a beacon into a fresh int64 slice (AppendBeacon).
func EncodeBeacon(b Beacon) []int64 {
	return AppendBeacon(make([]int64, 0, 2+2*len(b.Tanks)+4), b)
}

// AppendBeacon appends the encoding of b carried on SYNC messages to dst
// and returns the extended slice. Layout: [nTanks, x1, y1, ..., hasBox,
// minX, minY, maxX, maxY].
func AppendBeacon(dst []int64, b Beacon) []int64 {
	dst = append(dst, int64(len(b.Tanks)))
	for _, p := range b.Tanks {
		dst = append(dst, int64(p.X), int64(p.Y))
	}
	if b.Box == nil {
		return append(dst, 0)
	}
	return append(dst, 1, int64(b.Box.MinX), int64(b.Box.MinY), int64(b.Box.MaxX), int64(b.Box.MaxY))
}

// DecodeBeacon parses an encoded beacon.
func DecodeBeacon(ints []int64) (Beacon, error) {
	var b Beacon
	if err := DecodeBeaconInto(&b, nil, ints); err != nil {
		return Beacon{}, err
	}
	return b, nil
}

// DecodeBeaconInto parses an encoded beacon into b, reusing b.Tanks'
// capacity; when the beacon carries a box it is stored in *box (a fresh Box
// if box is nil) and b.Box points there. A receiver that keeps one Beacon
// and one Box per peer decodes every rendezvous without allocating. On
// error b and *box are untouched.
func DecodeBeaconInto(b *Beacon, box *Box, ints []int64) error {
	if len(ints) < 1 {
		return fmt.Errorf("game: empty beacon")
	}
	n := int(ints[0])
	if n < 0 || len(ints) < 1+2*n+1 {
		return fmt.Errorf("game: truncated beacon (%d ints for %d tanks)", len(ints), n)
	}
	rest := ints[1+2*n:]
	switch {
	case rest[0] == 1 && len(rest) < 5:
		return fmt.Errorf("game: truncated beacon box")
	case rest[0] != 0 && rest[0] != 1:
		return fmt.Errorf("game: bad beacon box flag %d", rest[0])
	}
	if cap(b.Tanks) < n {
		b.Tanks = make([]Pos, 0, n)
	}
	b.Tanks = b.Tanks[:0]
	for i := 0; i < n; i++ {
		b.Tanks = append(b.Tanks, Pos{X: int(ints[1+2*i]), Y: int(ints[2+2*i])})
	}
	b.Box = nil
	if rest[0] == 1 {
		if box == nil {
			box = new(Box)
		}
		*box = Box{MinX: int(rest[1]), MinY: int(rest[2]), MaxX: int(rest[3]), MaxY: int(rest[4])}
		b.Box = box
	}
	return nil
}

// minPairDist returns the minimum Manhattan distance between any tank of a
// and any tank of b. Empty sets yield a large distance.
func minPairDist(a, b []Pos) int {
	const far = 1 << 20
	best := far
	for _, p := range a {
		for _, q := range b {
			if d := p.Manhattan(q); d < best {
				best = d
			}
		}
	}
	return best
}

// minBoxDist returns the minimum Manhattan distance from any tank to the
// box; a nil box yields a large distance.
func minBoxDist(tanks []Pos, box *Box) int {
	const far = 1 << 20
	if box == nil {
		return far
	}
	best := far
	for _, p := range tanks {
		if d := box.Dist(p); d < best {
			best = d
		}
	}
	return best
}

// NextDelta is the lookahead s-function core (paper §3.2): the number of
// ticks until two processes must next exchange, given both sides' tank
// positions and both sides' unsent-modification boxes. It is the minimum
// over:
//
//   - the tank term — "halving the distance between the nearest tanks in
//     any two teams". Tanks close at most 2 blocks per tick, so plain
//     halving bounds tank-tank interaction; we subtract a further 2 blocks
//     of margin because a tank may read the *trail* of blocks its peer
//     wrote while moving (the trail reaches up to Δ blocks ahead of the
//     peer's rendezvous-time position, where Δ is the gap being chosen):
//     with Δ = ceil((d-H-2)/2), 2Δ <= d-H holds, so no trail block can be
//     read before the next rendezvous delivers it.
//   - the box terms: a box of withheld writes is static after the
//     rendezvous (the writes made since are the trail, which the tank term
//     covers), so only the peer's tanks close on it, at 1 block per tick.
//     A tank d blocks from the box is still more than H away from it after
//     Δ = d-H-1 ticks, and halving would be a second margin.
//
// Both rendezvous partners evaluate NextDelta over the same four inputs
// (their own fresh state plus the peer's beacon), so the result — and hence
// the pairwise schedule — is identical on both sides.
func NextDelta(h int, myTanks []Pos, myBoxForPeer *Box, peerTanks []Pos, peerBoxForMe *Box) int64 {
	delta := int64(1)
	if d := minPairDist(myTanks, peerTanks); d > h+2 {
		delta = int64((d - h - 1) / 2)
	}
	for _, d := range [2]int{minBoxDist(peerTanks, myBoxForPeer), minBoxDist(myTanks, peerBoxForMe)} {
		if t := int64(d - h - 1); t < delta {
			delta = t
		}
	}
	return max(delta, 1)
}

// AlignmentPossible reports whether any tank pair could share a row or
// column within `slack` ticks of worst-case movement (each tank moves one
// block per tick toward alignment). MSYNC sends data to exactly the peers
// for which this holds (paper: "any enemy tank in the same row or column
// ... can potentially affect a local tank's next operation", extended by
// the worst-case reachability window).
func AlignmentPossible(a, b []Pos, slack int) bool {
	for _, p := range a {
		for _, q := range b {
			dx, dy := abs(p.X-q.X), abs(p.Y-q.Y)
			m := dx
			if dy < dx {
				m = dy
			}
			if m <= 2*slack {
				return true
			}
		}
	}
	return false
}

// WithinRange reports whether any tank pair could be within distance d of
// each other within `slack` ticks of worst-case movement. MSYNC2 requires
// this in addition to AlignmentPossible ("only exchanging tank locations
// and their image information with those processes whose tanks could have
// moved into the same row or column as a local tank, and the distance to
// those enemy tanks is less than d blocks").
func WithinRange(a, b []Pos, d, slack int) bool {
	return minPairDist(a, b) <= d+2*slack
}

// BoxApproach reports whether any of the peer's tanks could come within
// radius h of the (static) box within `slack` ticks. Data must flow before
// a peer reads blocks we have modified; both MSYNC variants force a flush
// when this fires, regardless of their spatial filters.
func BoxApproach(peerTanks []Pos, box *Box, h, slack int) bool {
	return minBoxDist(peerTanks, box) <= h+slack
}
