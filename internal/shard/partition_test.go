package shard

import (
	"testing"

	"sdso/internal/game"
)

// worlds under test: the default board plus the fixed-density scaled
// boards the harness uses at n=64/128/256.
var worlds = [][2]int{{32, 24}, {64, 48}, {96, 64}, {128, 96}, {7, 5}}

// TestCellsMapToExactlyOneShard brute-forces the tiling property: every
// cell of the world is inside exactly one region.
func TestCellsMapToExactlyOneShard(t *testing.T) {
	for _, wh := range worlds {
		w, h := wh[0], wh[1]
		for k := 1; k <= 16; k *= 2 {
			p, err := New(w, h, k)
			if err != nil {
				t.Fatalf("New(%d,%d,%d): %v", w, h, k, err)
			}
			for x := 0; x < w; x++ {
				for y := 0; y < h; y++ {
					pos := game.Pos{X: x, Y: y}
					owner := -1
					for s, r := range p.regions {
						if r.dist(pos) != 0 {
							continue
						}
						if owner != -1 {
							t.Fatalf("%dx%d k=%d: cell %v in shards %d and %d", w, h, k, pos, owner, s)
						}
						owner = s
					}
					if owner == -1 {
						t.Fatalf("%dx%d k=%d: cell %v in no shard", w, h, k, pos)
					}
				}
			}
		}
	}
}

// TestRegionsTileWithoutGapsOrOverlaps checks the tiling by area: the
// region areas sum exactly to the world, every region is non-empty, and
// no pair of regions intersects.
func TestRegionsTileWithoutGapsOrOverlaps(t *testing.T) {
	for _, wh := range worlds {
		w, h := wh[0], wh[1]
		for k := 1; k <= 32 && k <= w*h; k *= 2 {
			if Validate(w, h, k) != nil {
				continue // e.g. 32 shards over 7x5 strands an empty region
			}
			p, err := New(w, h, k)
			if err != nil {
				t.Fatalf("New(%d,%d,%d): %v", w, h, k, err)
			}
			total := 0
			regs := p.regions
			for s, r := range regs {
				if r.area() <= 0 {
					t.Fatalf("%dx%d k=%d: shard %d region %v is empty", w, h, k, s, r)
				}
				total += r.area()
				for s2 := s + 1; s2 < len(regs); s2++ {
					r2 := regs[s2]
					if r.X0 < r2.X1 && r2.X0 < r.X1 && r.Y0 < r2.Y1 && r2.Y0 < r.Y1 {
						t.Fatalf("%dx%d k=%d: regions %d %v and %d %v overlap", w, h, k, s, r, s2, r2)
					}
				}
			}
			if total != w*h {
				t.Fatalf("%dx%d k=%d: region areas sum to %d, want %d", w, h, k, total, w*h)
			}
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []struct {
		w, h, k int
	}{
		{32, 24, 0}, {32, 24, 3}, {32, 24, 12}, {32, 24, 512},
		{0, 24, 4}, {32, -1, 4}, {2, 2, 8},
	}
	for _, c := range bad {
		if err := Validate(c.w, c.h, c.k); err == nil {
			t.Errorf("Validate(%d,%d,%d) accepted a bad config", c.w, c.h, c.k)
		}
		if _, err := New(c.w, c.h, c.k); err == nil {
			t.Errorf("New(%d,%d,%d) accepted a bad config", c.w, c.h, c.k)
		}
	}
	for _, k := range []int{1, 2, 4, 8, 16, 256} {
		if err := Validate(32, 24, k); err != nil {
			t.Errorf("Validate(32,24,%d): %v", k, err)
		}
	}
}

// TestOverlaps cross-checks the residency intersection against a
// brute-force per-cell scan — a region is in a footprint when one of its
// cells is within reach of one of the tanks — and pins the blind
// never-veto degrade.
func TestOverlaps(t *testing.T) {
	const w, h = 64, 48
	p, err := New(w, h, 16)
	if err != nil {
		t.Fatal(err)
	}
	resident := func(r region, tanks []game.Pos, reach int) bool {
		for x := r.X0; x < r.X1; x++ {
			for y := r.Y0; y < r.Y1; y++ {
				for _, tank := range tanks {
					if tank.Manhattan(game.Pos{X: x, Y: y}) <= reach {
						return true
					}
				}
			}
		}
		return false
	}
	cases := []struct {
		a, b   []game.Pos
		ra, rb int
	}{
		{[]game.Pos{{X: 2, Y: 2}}, []game.Pos{{X: 60, Y: 40}}, 3, 3},
		{[]game.Pos{{X: 2, Y: 2}}, []game.Pos{{X: 5, Y: 5}}, 3, 3},
		{[]game.Pos{{X: 30, Y: 20}}, []game.Pos{{X: 34, Y: 26}}, 6, 6},
		{[]game.Pos{{X: 30, Y: 20}}, []game.Pos{{X: 34, Y: 26}}, 0, 0},
		{[]game.Pos{{X: 14, Y: 10}}, []game.Pos{{X: 20, Y: 14}}, 2, 6},
		{[]game.Pos{{X: 0, Y: 0}, {X: 63, Y: 47}}, []game.Pos{{X: 32, Y: 24}}, 2, 2},
	}
	for _, c := range cases {
		want := false
		for _, r := range p.regions {
			if resident(r, c.a, c.ra) && resident(r, c.b, c.rb) {
				want = true
			}
		}
		if got := p.Overlaps(c.a, c.ra, c.b, c.rb); got != want {
			t.Errorf("Overlaps(%v r%d, %v r%d) = %v, per-cell scan says %v", c.a, c.ra, c.b, c.rb, got, want)
		}
	}
	if !p.Overlaps(nil, 1, []game.Pos{{X: 1, Y: 1}}, 1) {
		t.Error("blind side must never be vetoed")
	}
}
