// Package shard partitions the world grid into numbered regions so the
// lookahead gate can bound DATA fanout by shard residency: a peer
// receives a flush only when some region is within reach of both
// neighbourhoods (Partition.Overlaps).
//
// The partition is a recursive longest-axis halving: configuration k
// covers the world with k axis-aligned rectangles, and doubling k
// splits each region in two, keeping the larger half under the old
// shard number and giving the smaller half a new number k above it, so
// the 2k-way partition refines the k-way one.
package shard

import (
	"fmt"

	"sdso/internal/game"
)

// region is one axis-aligned rectangle of the partition, covering
// cells with X0 <= x < X1 and Y0 <= y < Y1.
type region struct {
	X0, Y0, X1, Y1 int
}

// area returns the number of cells the region covers.
func (r region) area() int { return (r.X1 - r.X0) * (r.Y1 - r.Y0) }

// dist returns the Manhattan distance from p to the region (zero if
// inside), matching the metric the s-function machinery uses.
func (r region) dist(p game.Pos) int {
	d := 0
	switch {
	case p.X < r.X0:
		d += r.X0 - p.X
	case p.X >= r.X1:
		d += p.X - (r.X1 - 1)
	}
	switch {
	case p.Y < r.Y0:
		d += r.Y0 - p.Y
	case p.Y >= r.Y1:
		d += p.Y - (r.Y1 - 1)
	}
	return d
}

func (r region) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1)
}

// Partition is one numbered shard configuration over a Width x Height
// world. It is immutable after New.
type Partition struct {
	regions []region
}

// Validate reports whether (width, height, shards) is a legal
// configuration: positive dimensions, and a power-of-two shard count
// between 1 and 256 that still gives every shard at least one cell.
func Validate(width, height, shards int) error {
	if width <= 0 || height <= 0 {
		return fmt.Errorf("shard: world %dx%d must have positive dimensions", width, height)
	}
	if shards < 1 || shards > 256 {
		return fmt.Errorf("shard: count %d out of range [1,256]", shards)
	}
	if shards&(shards-1) != 0 {
		return fmt.Errorf("shard: count %d is not a power of two (halving numbering needs one)", shards)
	}
	// The cheap area bound is not enough: halving a skinny world can
	// strand a 1-cell region whose next split is empty. Run the actual
	// halving (at most 256 regions) and insist every region keeps area.
	for _, r := range halve(width, height, shards) {
		if r.area() <= 0 {
			return fmt.Errorf("shard: %d shards over a %dx%d world leaves region %v empty", shards, width, height, r)
		}
	}
	return nil
}

// halve runs the recursive longest-axis halving down to the given
// shard count, returning the regions indexed by shard number.
func halve(width, height, shards int) []region {
	regions := []region{{0, 0, width, height}}
	for len(regions) < shards {
		k := len(regions)
		next := make([]region, 2*k)
		for i, r := range regions {
			low, high := split(r)
			next[i] = low
			next[i+k] = high
		}
		regions = next
	}
	return regions
}

// New builds the shard configuration for a Width x Height world split
// into the given power-of-two number of regions.
func New(width, height, shards int) (*Partition, error) {
	if err := Validate(width, height, shards); err != nil {
		return nil, err
	}
	return &Partition{regions: halve(width, height, shards)}, nil
}

// split halves r along its longest axis. The low half (keeping the
// parent's shard number) takes the ceiling of the cells so the half
// that moves to a new number is never the larger one.
func split(r region) (low, high region) {
	w, h := r.X1-r.X0, r.Y1-r.Y0
	if w >= h {
		mid := r.X0 + (w+1)/2
		return region{r.X0, r.Y0, mid, r.Y1}, region{mid, r.Y0, r.X1, r.Y1}
	}
	mid := r.Y0 + (h+1)/2
	return region{r.X0, r.Y0, r.X1, mid}, region{r.X0, mid, r.X1, r.Y1}
}

// Overlaps reports whether two players' residency footprints share a
// shard: a's tanks within reachA of some region that b's tanks are
// within reachB of. It is the residency term of the lookahead gate,
// O(shards) with shards <= 256.
func (p *Partition) Overlaps(a []game.Pos, reachA int, b []game.Pos, reachB int) bool {
	if len(a) == 0 || len(b) == 0 {
		return true // blind on either side: never veto
	}
	for _, r := range p.regions {
		na := false
		for _, t := range a {
			if r.dist(t) <= reachA {
				na = true
				break
			}
		}
		if !na {
			continue
		}
		for _, t := range b {
			if r.dist(t) <= reachB {
				return true
			}
		}
	}
	return false
}
