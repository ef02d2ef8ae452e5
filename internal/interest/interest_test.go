package interest

import (
	"fmt"
	"math/rand"
	"testing"

	"sdso/internal/game"
	"sdso/internal/race"
)

func TestBlindPeerAlwaysInteresting(t *testing.T) {
	ix := New(Config{Width: 32, Height: 24, Radius: 2})
	ix.Forget(7)
	if !ix.Contains(7) {
		t.Fatal("forgotten peer must be interesting")
	}
	if ix.Size() != 1 {
		t.Fatalf("Size = %d, want 1", ix.Size())
	}
	ix.Observe(7, []game.Pos{{X: 30, Y: 20}}, 1)
	ix.Refresh([]game.Pos{{X: 0, Y: 0}}, 1)
	if ix.Contains(7) {
		t.Fatal("far observed peer must not be interesting")
	}
	ix.Drop(7)
	if ix.Contains(7) {
		t.Fatal("dropped peer must not be interesting")
	}
}

func TestEmptyObserveMarksBlind(t *testing.T) {
	ix := New(Config{Width: 32, Height: 24, Radius: 2})
	ix.Observe(3, nil, 1)
	if !ix.Contains(3) {
		t.Fatal("peer with unknown positions must be interesting")
	}
	ix.Observe(3, []game.Pos{{X: 1, Y: 1}}, 2)
	ix.Refresh([]game.Pos{{X: 0, Y: 0}}, 2)
	if !ix.Contains(3) {
		t.Fatal("adjacent peer must be interesting")
	}
}

func TestHysteresis(t *testing.T) {
	ix := New(Config{Radius: 2})
	self := []game.Pos{{X: 10, Y: 10}}
	// Enter threshold is Radius+enterSlack+age = 2+2+0 = 4 at age 0.
	ix.Observe(1, []game.Pos{{X: 15, Y: 10}}, 5) // dist 5 > 4: out
	entered, _ := ix.Refresh(self, 5)
	if len(entered) != 0 || ix.Contains(1) {
		t.Fatalf("peer at dist 5 entered (entered=%v)", entered)
	}
	ix.Observe(1, []game.Pos{{X: 14, Y: 10}}, 6) // dist 4 <= 4: in
	entered, _ = ix.Refresh(self, 6)
	if len(entered) != 1 || !ix.Contains(1) {
		t.Fatalf("peer at dist 4 did not enter (entered=%v)", entered)
	}
	// Exit threshold is Radius+exitSlack+age = 2+6+0 = 8: dist 7 stays.
	ix.Observe(1, []game.Pos{{X: 17, Y: 10}}, 7)
	_, left := ix.Refresh(self, 7)
	if len(left) != 0 || !ix.Contains(1) {
		t.Fatalf("peer at dist 7 left inside hysteresis band (left=%v)", left)
	}
	// dist 9 > 8: leaves.
	ix.Observe(1, []game.Pos{{X: 19, Y: 10}}, 8)
	_, left = ix.Refresh(self, 8)
	if len(left) != 1 || ix.Contains(1) {
		t.Fatalf("peer at dist 9 did not leave (left=%v)", left)
	}
}

func TestStalenessWidensThresholds(t *testing.T) {
	ix := New(Config{Radius: 2})
	self := []game.Pos{{X: 10, Y: 10}}
	// dist 6 at age 2 → threshold 2+2+2 = 6: enters.
	ix.Observe(1, []game.Pos{{X: 16, Y: 10}}, 3)
	entered, _ := ix.Refresh(self, 5)
	if len(entered) != 1 {
		t.Fatalf("stale peer at dist 6 did not enter (entered=%v)", entered)
	}
}

// TestRefreshMatchesBruteForce drives random walks over a board and
// checks membership against a direct hysteretic recomputation.
func TestRefreshMatchesBruteForce(t *testing.T) {
	const (
		w, h   = 48, 36
		nPeers = 24
		ticks  = 80
		radius = 3
	)
	rng := rand.New(rand.NewSource(42))
	ix := New(Config{Radius: radius})

	type ref struct {
		tanks []game.Pos
		tick  int64
	}
	peers := make(map[int]*ref)
	want := make(map[int]bool)
	step := func(p game.Pos) game.Pos {
		p.X += rng.Intn(3) - 1
		p.Y += rng.Intn(3) - 1
		if p.X < 0 {
			p.X = 0
		}
		if p.X >= w {
			p.X = w - 1
		}
		if p.Y < 0 {
			p.Y = 0
		}
		if p.Y >= h {
			p.Y = h - 1
		}
		return p
	}
	self := []game.Pos{{X: w / 2, Y: h / 2}, {X: w / 4, Y: h / 4}}
	for i := 0; i < nPeers; i++ {
		peers[i] = &ref{tanks: []game.Pos{{X: rng.Intn(w), Y: rng.Intn(h)}}}
		// Mirror real usage: every live peer starts blind until its
		// first beacon is observed.
		ix.Forget(i)
	}

	minDist := func(r *ref) int {
		best := 1 << 30
		for _, a := range self {
			for _, b := range r.tanks {
				if d := a.Manhattan(b); d < best {
					best = d
				}
			}
		}
		return best
	}

	for tick := int64(1); tick <= ticks; tick++ {
		for i := range self {
			self[i] = step(self[i])
		}
		for id, r := range peers {
			// Peers beacon sporadically, so observations go stale.
			if rng.Intn(3) == 0 {
				for j := range r.tanks {
					r.tanks[j] = step(r.tanks[j])
				}
				r.tick = tick
				ix.Observe(id, r.tanks, tick)
			}
		}
		ix.Refresh(self, tick)

		// Brute-force hysteretic recomputation.
		for id, r := range peers {
			if r.tick == 0 {
				continue // never observed: blind, checked below
			}
			drift := int(tick - r.tick)
			d := minDist(r)
			if want[id] {
				if d > radius+exitSlack+drift {
					want[id] = false
				}
			} else if d <= radius+enterSlack+drift {
				want[id] = true
			}
		}
		for id, r := range peers {
			got := ix.Contains(id)
			exp := want[id] || r.tick == 0
			if got != exp {
				t.Fatalf("tick %d peer %d: Contains=%v want %v (dist=%d)",
					tick, id, got, exp, minDist(r))
			}
		}
	}
}

// TestIndexSteadyStateAllocs: once every peer has been seen, a tick's worth of
// index work — an Observe per peer, each tank five blocks on, then a Refresh
// with peers entering and leaving — allocates nothing.
func TestIndexSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const n, w, h = 64, 64, 48
	ix := New(Config{Radius: 3})
	rng := rand.New(rand.NewSource(7))
	tanks := make([][]game.Pos, n)
	for peer := 1; peer < n; peer++ {
		tanks[peer] = []game.Pos{{X: rng.Intn(w), Y: rng.Intn(h)}, {X: rng.Intn(w), Y: rng.Intn(h)}}
	}
	self := []game.Pos{{X: w / 2, Y: h / 2}}
	tick := int64(0)
	round := func() {
		tick++
		for peer := 1; peer < n; peer++ {
			for i := range tanks[peer] {
				tanks[peer][i].X = (tanks[peer][i].X + 5) % w
			}
			ix.Observe(peer, tanks[peer], tick)
		}
		ix.Refresh(self, tick)
	}
	round() // the warm round: slab, arena and buffers reach their sizes
	if got := testing.AllocsPerRun(50, round); got != 0 {
		t.Errorf("%.1f allocations per steady-state round, want 0", got)
	}
	if ix.Size() == 0 {
		t.Error("the rounds never made a peer interesting: the test measured nothing")
	}
}

// BenchmarkTick times what one player's index costs a tick on the
// InterestWorld geometry (one tank a team, radius 2): every peer is
// observed with its tank one block on, then one Refresh runs.
func BenchmarkTick(b *testing.B) {
	for _, g := range []struct{ n, w, h int }{{64, 64, 48}, {256, 128, 96}} {
		b.Run(fmt.Sprintf("n%d_%dx%d", g.n, g.w, g.h), func(b *testing.B) {
			ix := New(Config{Radius: 2})
			rng := rand.New(rand.NewSource(1))
			tanks := make([][]game.Pos, g.n)
			steps := make([]game.Pos, g.n) // each tank walks one axis, turning at the walls
			for p := range tanks {
				tanks[p] = []game.Pos{{X: rng.Intn(g.w), Y: rng.Intn(g.h)}}
				steps[p] = [...]game.Pos{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}}[rng.Intn(4)]
			}
			tick := int64(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tick++
				for p := range tanks {
					t, s := &tanks[p][0], &steps[p]
					if t.X+s.X < 0 || t.X+s.X >= g.w || t.Y+s.Y < 0 || t.Y+s.Y >= g.h {
						s.X, s.Y = -s.X, -s.Y
					}
					t.X, t.Y = t.X+s.X, t.Y+s.Y
					if p > 0 {
						ix.Observe(p, tanks[p], tick)
					}
				}
				ix.Refresh(tanks[0], tick)
			}
		})
	}
}
