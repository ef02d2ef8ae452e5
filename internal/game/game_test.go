package game

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"sdso/internal/store"
)

func TestCellCodec(t *testing.T) {
	for _, c := range []Cell{
		{Kind: Empty},
		{Kind: Goal},
		{Kind: Bonus},
		{Kind: Bomb},
		{Kind: Tank, Team: 7},
	} {
		got, err := DecodeCell(EncodeCell(c))
		if err != nil {
			t.Fatalf("DecodeCell(%v): %v", c, err)
		}
		if got != c {
			t.Errorf("round trip: got %v, want %v", got, c)
		}
	}
	if _, err := DecodeCell([]byte{1, 2}); err == nil {
		t.Error("short encoding accepted")
	}
	if _, err := DecodeCell(make([]byte, CellBytes)); err == nil {
		t.Error("zero kind accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"default", func(c *Config) {}, true},
		{"tiny grid", func(c *Config) { c.Width = 2 }, false},
		{"no teams", func(c *Config) { c.Teams = 0 }, false},
		{"no tanks", func(c *Config) { c.TanksPerTeam = 0 }, false},
		{"zero range", func(c *Config) { c.Range = 0 }, false},
		{"no ticks", func(c *Config) { c.MaxTicks = 0 }, false},
		{"crowded", func(c *Config) { c.Bombs = 1000 }, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig(4, 1)
			tt.mut(&cfg)
			if err := cfg.Validate(); (err == nil) != tt.ok {
				t.Errorf("Validate = %v, want ok=%v", err, tt.ok)
			}
		})
	}
}

func TestObjectPosMapping(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	for y := 0; y < cfg.Height; y++ {
		for x := 0; x < cfg.Width; x++ {
			p := Pos{x, y}
			if got := cfg.PosOf(cfg.ObjectOf(p)); got != p {
				t.Fatalf("PosOf(ObjectOf(%v)) = %v", p, got)
			}
		}
	}
	if cfg.InBounds(Pos{-1, 0}) || cfg.InBounds(Pos{0, cfg.Height}) {
		t.Error("out-of-bounds positions accepted")
	}
}

func TestInteractionRadius(t *testing.T) {
	if got := DefaultConfig(2, 1).InteractionRadius(); got != 2 {
		t.Errorf("range 1 radius = %d, want 2", got)
	}
	if got := DefaultConfig(2, 3).InteractionRadius(); got != 3 {
		t.Errorf("range 3 radius = %d, want 3", got)
	}
}

func TestNewWorldDeterministicAndComplete(t *testing.T) {
	cfg := DefaultConfig(8, 1)
	w1, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w1.Cells, w2.Cells) {
		t.Error("same seed produced different worlds")
	}
	cfg2 := cfg
	cfg2.Seed = 2
	w3, err := NewWorld(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(w1.Cells, w3.Cells) {
		t.Error("different seeds produced identical worlds")
	}

	counts := map[CellKind]int{}
	teams := map[int]int{}
	for _, c := range w1.Cells {
		counts[c.Kind]++
		if c.Kind == Tank {
			teams[c.Team]++
		}
	}
	if counts[Goal] != 1 || counts[Bonus] != cfg.Bonuses || counts[Bomb] != cfg.Bombs {
		t.Errorf("placement counts: %v", counts)
	}
	if len(teams) != cfg.Teams {
		t.Errorf("placed %d teams, want %d", len(teams), cfg.Teams)
	}
	for team, n := range teams {
		if n != cfg.TanksPerTeam {
			t.Errorf("team %d has %d tanks", team, n)
		}
	}
}

func TestWorldEncodeDecodeRoundTrip(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := w.Encode()
	got, err := DecodeWorld(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.Cells, got.Cells) {
		t.Error("encode/decode round trip lost cells")
	}
	if got.Goal != w.Goal {
		t.Errorf("goal %v, want %v", got.Goal, w.Goal)
	}
}

func TestWorldString(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := w.String()
	if !strings.Contains(s, "G") || !strings.Contains(s, "0") || !strings.Contains(s, "1") {
		t.Errorf("render missing markers:\n%s", s)
	}
}

// decideView builds a View over a static scenario.
func decideView(cfg Config, team int, self, goal Pos, cells map[Pos]Cell, enemies map[int][]Pos) View {
	return View{
		Cfg:  cfg,
		Team: team,
		Self: self,
		Goal: goal,
		CellAt: func(p Pos) Cell {
			if c, ok := cells[p]; ok {
				return c
			}
			return Cell{Kind: Empty}
		},
		Enemies: enemies,
	}
}

// tankCells places enemy tanks on their blocks (Decide confirms beacon
// positions against cell contents).
func tankCells(enemies map[int][]Pos) map[Pos]Cell {
	cells := make(map[Pos]Cell)
	for team, ps := range enemies {
		for _, p := range ps {
			cells[p] = Cell{Kind: Tank, Team: team}
		}
	}
	return cells
}

func TestDecideSuppression(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	// Higher-ID enemy within two blocks: lower ID yields.
	enemies := map[int][]Pos{2: {{7, 5}}}
	v := decideView(cfg, 1, Pos{5, 5}, Pos{20, 20}, tankCells(enemies), enemies)
	act := Decide(v)
	if act.Kind != Stay || !act.Suppressed {
		t.Errorf("lower ID near higher ID: %+v, want suppressed stay", act)
	}
	// Lower-ID enemy within two blocks but not adjacent: higher ID moves.
	enemies = map[int][]Pos{1: {{7, 5}}}
	v = decideView(cfg, 2, Pos{5, 5}, Pos{20, 20}, tankCells(enemies), enemies)
	act = Decide(v)
	if act.Kind != Move {
		t.Errorf("higher ID should act: %+v", act)
	}
	// Far enemy: no suppression.
	enemies = map[int][]Pos{2: {{15, 15}}}
	v = decideView(cfg, 1, Pos{5, 5}, Pos{20, 20}, tankCells(enemies), enemies)
	if act := Decide(v); act.Suppressed {
		t.Errorf("far enemy caused suppression: %+v", act)
	}
}

func TestDecidePhantomEnemyIgnored(t *testing.T) {
	// A beacon position whose block no longer holds the tank (the victim
	// was destroyed, its process hasn't announced DONE yet) must not
	// suppress, and must not be fired at.
	cfg := DefaultConfig(4, 1)
	enemies := map[int][]Pos{2: {{6, 5}}, 1: {{5, 6}}}
	cells := map[Pos]Cell{} // both blocks empty: stale beacons
	v := decideView(cfg, 1, Pos{5, 5}, Pos{20, 20}, cells, map[int][]Pos{2: enemies[2]})
	if act := Decide(v); act.Suppressed {
		t.Errorf("phantom higher-ID enemy suppressed: %+v", act)
	}
	v = decideView(cfg, 3, Pos{5, 5}, Pos{20, 20}, cells, map[int][]Pos{1: enemies[1]})
	if act := Decide(v); act.Kind == Fire {
		t.Errorf("fired at phantom: %+v", act)
	}
}

func TestDecideFireAdjacentLowerID(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	enemies := map[int][]Pos{
		1: {{5, 6}},
		2: {{4, 5}},
	}
	v := decideView(cfg, 3, Pos{5, 5}, Pos{20, 20}, tankCells(enemies), enemies)
	act := Decide(v)
	if act.Kind != Fire {
		t.Fatalf("adjacent enemies: %+v, want fire", act)
	}
	if act.Target != (Pos{5, 6}) {
		t.Errorf("fired at %v, want lowest team's tank {5 6}", act.Target)
	}
}

func TestDecideMovesTowardGoal(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	v := decideView(cfg, 0, Pos{5, 5}, Pos{10, 5}, nil, nil)
	act := Decide(v)
	if act.Kind != Move || act.To != (Pos{6, 5}) {
		t.Errorf("open field move = %+v, want east to {6 5}", act)
	}
}

func TestDecidePrefersGoalAndBonus(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	cells := map[Pos]Cell{
		{6, 5}: {Kind: Goal},
		{5, 4}: {Kind: Bonus},
	}
	v := decideView(cfg, 0, Pos{5, 5}, Pos{6, 5}, cells, nil)
	if act := Decide(v); act.Kind != Move || act.To != (Pos{6, 5}) {
		t.Errorf("goal adjacent: %+v", act)
	}
	// Bonus beats a plain empty step even slightly off-path.
	v = decideView(cfg, 0, Pos{5, 5}, Pos{10, 5}, map[Pos]Cell{{5, 4}: {Kind: Bonus}}, nil)
	if act := Decide(v); act.Kind != Move || act.To != (Pos{5, 4}) {
		t.Errorf("bonus detour: %+v", act)
	}
}

func TestDecideBlockedDetours(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	cells := map[Pos]Cell{
		{6, 5}: {Kind: Bomb}, // direct path blocked
	}
	// Blocked ahead: the tank detours (north, by direction order) rather
	// than waiting forever.
	v := decideView(cfg, 0, Pos{5, 5}, Pos{10, 5}, cells, nil)
	v.Prev = Pos{5, 5}
	act := Decide(v)
	if act.Kind != Move || act.To != (Pos{5, 4}) {
		t.Errorf("blocked path: %+v, want detour north", act)
	}

	// The detour must not immediately backtrack: coming from the north,
	// the tank picks south instead.
	v.Prev = Pos{5, 4}
	act = Decide(v)
	if act.Kind != Move || act.To != (Pos{5, 6}) {
		t.Errorf("detour with prev north: %+v, want south", act)
	}

	// Dead end: backtracking is the only way out and is taken.
	cells = map[Pos]Cell{
		{6, 5}: {Kind: Bomb},
		{5, 4}: {Kind: Bomb}, {5, 6}: {Kind: Bomb},
	}
	v = decideView(cfg, 0, Pos{5, 5}, Pos{10, 5}, cells, nil)
	v.Prev = Pos{4, 5}
	act = Decide(v)
	if act.Kind != Move || act.To != (Pos{4, 5}) {
		t.Errorf("dead end: %+v, want backtrack west", act)
	}

	// Fully walled in: nothing passable, stay.
	cells[Pos{4, 5}] = Cell{Kind: Bomb}
	v = decideView(cfg, 0, Pos{5, 5}, Pos{10, 5}, cells, nil)
	if act := Decide(v); act.Kind != Stay {
		t.Errorf("walled in: %+v, want stay", act)
	}
}

func TestDecideEdgeOfBoard(t *testing.T) {
	cfg := DefaultConfig(4, 1)
	v := decideView(cfg, 0, Pos{0, 0}, Pos{0, 10}, nil, nil)
	act := Decide(v)
	if act.Kind != Move || act.To != (Pos{0, 1}) {
		t.Errorf("corner move = %+v, want south", act)
	}
}

func TestActionWrites(t *testing.T) {
	goal := Pos{9, 9}
	move := Action{Kind: Move, From: Pos{1, 1}, To: Pos{2, 1}}
	ws, reached := move.Writes(3, goal)
	if reached || len(ws) != 2 {
		t.Fatalf("move writes = %v reached=%v", ws, reached)
	}
	if ws[0].Cell.Kind != Empty || ws[1].Cell != (Cell{Kind: Tank, Team: 3}) {
		t.Errorf("move writes = %+v", ws)
	}

	ws, reached = Action{Kind: Move, From: Pos{9, 8}, To: goal}.Writes(3, goal)
	if !reached || len(ws) != 1 || ws[0].Pos != (Pos{9, 8}) {
		t.Errorf("goal move writes = %v reached=%v", ws, reached)
	}

	ws, _ = Action{Kind: Fire, Target: Pos{4, 4}}.Writes(3, goal)
	if len(ws) != 1 || ws[0].Cell.Kind != Empty {
		t.Errorf("fire writes = %v", ws)
	}

	ws, _ = Action{Kind: Stay}.Writes(3, goal)
	if ws != nil {
		t.Errorf("stay writes = %v", ws)
	}
}

func TestRunReferenceTerminatesAndScores(t *testing.T) {
	for _, teams := range []int{2, 4, 8, 16} {
		cfg := DefaultConfig(teams, 1)
		res, err := RunReference(cfg)
		if err != nil {
			t.Fatalf("teams=%d: %v", teams, err)
		}
		if len(res.Stats) != teams {
			t.Fatalf("teams=%d: %d stats", teams, len(res.Stats))
		}
		reached := 0
		for _, st := range res.Stats {
			if st.ReachedGoal {
				reached++
			}
			if st.Mods < 0 || st.Ticks == 0 {
				t.Errorf("teams=%d team %d: %+v", teams, st.Team, st)
			}
		}
		if reached == 0 {
			t.Errorf("teams=%d: nobody reached the goal", teams)
		}
		if len(res.Hashes) == 0 || res.Final == nil {
			t.Error("missing trajectory/final world")
		}
	}
}

// TestRunReferenceNoRacesAcrossSeeds is the single-writer guarantee: the
// suppression rule must prevent two teams from writing one block in the
// same tick for every seed (RunReference errors out if violated).
func TestRunReferenceNoRacesAcrossSeeds(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		for _, rng := range []int{1, 3} {
			cfg := DefaultConfig(8, rng)
			cfg.Seed = seed
			if _, err := RunReference(cfg); err != nil {
				t.Fatalf("seed=%d range=%d: %v", seed, rng, err)
			}
		}
	}
}

func TestRunReferenceDeterministic(t *testing.T) {
	cfg := DefaultConfig(6, 1)
	a, err := RunReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Hashes, b.Hashes) {
		t.Error("reference trajectories differ between runs")
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Error("reference stats differ between runs")
	}
}

func TestBeaconRoundTrip(t *testing.T) {
	f := func(xs, ys []uint8, hasBox bool, bx, by, bx2, by2 uint8) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		b := Beacon{}
		for i := 0; i < n; i++ {
			b.Tanks = append(b.Tanks, Pos{int(xs[i]), int(ys[i])})
		}
		if hasBox {
			b.Box = &Box{MinX: int(bx), MinY: int(by), MaxX: int(bx) + int(bx2), MaxY: int(by) + int(by2)}
		}
		enc := EncodeBeacon(b)
		got, err := DecodeBeacon(enc)
		if err != nil {
			return false
		}
		// AppendBeacon writes the same ints after whatever dst holds.
		prefix := []int64{-7}
		appended := AppendBeacon(prefix, b)
		return reflect.DeepEqual(normalizeBeacon(got), normalizeBeacon(b)) &&
			appended[0] == -7 && reflect.DeepEqual(appended[1:], enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func normalizeBeacon(b Beacon) Beacon {
	if len(b.Tanks) == 0 {
		b.Tanks = nil
	}
	return b
}

func TestDecodeBeaconErrors(t *testing.T) {
	cases := [][]int64{
		nil,
		{5},          // claims 5 tanks, no data
		{1, 2},       // truncated tank
		{0, 7},       // bad box flag
		{0, 1, 2, 3}, // truncated box
		{-1, 0},      // negative count
	}
	for i, ints := range cases {
		if _, err := DecodeBeacon(ints); err == nil {
			t.Errorf("case %d accepted: %v", i, ints)
		}
	}
}

func TestBoxDist(t *testing.T) {
	b := &Box{MinX: 5, MinY: 5, MaxX: 7, MaxY: 6}
	tests := []struct {
		p    Pos
		want int
	}{
		{Pos{6, 5}, 0}, // inside
		{Pos{4, 5}, 1}, // left
		{Pos{9, 6}, 2}, // right
		{Pos{6, 2}, 3}, // above
		{Pos{3, 3}, 4}, // diagonal
		{Pos{10, 10}, 7},
	}
	for _, tt := range tests {
		if got := b.Dist(tt.p); got != tt.want {
			t.Errorf("Dist(%v) = %d, want %d", tt.p, got, tt.want)
		}
	}
}

// TestNextDeltaSymmetric is the deadlock-freedom invariant: both partners
// compute the same delta from mirrored inputs.
func TestNextDeltaSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by uint8, hasBoxA, hasBoxB bool, h uint8) bool {
		hh := int(h%4) + 2
		aTanks := []Pos{{int(ax % 32), int(ay % 24)}}
		bTanks := []Pos{{int(bx % 32), int(by % 24)}}
		var boxA, boxB *Box
		if hasBoxA {
			boxA = &Box{MinX: aTanks[0].X, MinY: aTanks[0].Y, MaxX: aTanks[0].X, MaxY: aTanks[0].Y}
		}
		if hasBoxB {
			boxB = &Box{MinX: bTanks[0].X, MinY: bTanks[0].Y, MaxX: bTanks[0].X, MaxY: bTanks[0].Y}
		}
		d1 := NextDelta(hh, aTanks, boxA, bTanks, boxB)
		d2 := NextDelta(hh, bTanks, boxB, aTanks, boxA)
		return d1 == d2 && d1 >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestNextDeltaSafety checks NextDelta as a law of movement (paper §3.2).
// A tank moves at most one block a tick, so k ticks after a rendezvous it
// stands in the L1 ball of radius k about the position its beacon gave, and
// the trail its side wrote meanwhile lies in the balls about that side's
// tanks. For every k up to the gap Δ NextDelta picks (a gap of 1 is the
// floor: no earlier rendezvous exists), and both ways round:
//
//   - box terms: no tank comes within h of the other side's withheld box,
//     which stays where it is until the rendezvous delivers it;
//   - tank term: no tank comes within h of the other side's trail.
//
// The balls only grow with k, so reaching nothing at k = Δ covers every
// smaller k. The cases cover h in 1..4, one and two tanks a side, and
// distances up to the diameter of the largest board (InterestWorld(256),
// 128×96): sweeps that make each term the binding one, and seeded random
// placements. The gap must also be symmetric, which the pairwise schedule
// rests on.
func TestNextDeltaSafety(t *testing.T) {
	const width, height = 128, 96
	const diameter = width + height - 2
	type side struct {
		tanks []Pos
		box   *Box // the writes this side withholds from the other
	}
	// reaches reports the first position in the L1 ball of radius k about
	// q for which near holds.
	reaches := func(q Pos, k int, near func(Pos) bool) (Pos, bool) {
		for dx := -k; dx <= k; dx++ {
			r := k - abs(dx)
			for dy := -r; dy <= r; dy++ {
				if x := (Pos{q.X + dx, q.Y + dy}); near(x) {
					return x, true
				}
			}
		}
		return Pos{}, false
	}
	failures := 0
	check := func(h int, a, b side) {
		delta := NextDelta(h, a.tanks, a.box, b.tanks, b.box)
		if sym := NextDelta(h, b.tanks, b.box, a.tanks, a.box); sym != delta {
			t.Errorf("h=%d %v vs %v: Δ %d one way, %d the other", h, a, b, delta, sym)
		}
		if delta < 1 {
			t.Errorf("h=%d %v vs %v: Δ %d below the floor of 1", h, a, b, delta)
		}
		if delta <= 1 || failures > 10 {
			return
		}
		k := int(delta)
		for _, pair := range [][2]side{{a, b}, {b, a}} {
			mine, theirs := pair[0], pair[1]
			for _, q := range theirs.tanks {
				if x, ok := reaches(q, k, func(x Pos) bool { return mine.box != nil && mine.box.Dist(x) <= h }); ok {
					failures++
					t.Errorf("h=%d Δ=%d: a tank from %v reaches %v, within %d of the static box %+v", h, k, q, x, h, *mine.box)
				}
				// The trail of a tank at p lies within k of p, so x is
				// within h of it when dist(x, p) - k <= h.
				if x, ok := reaches(q, k, func(x Pos) bool {
					for _, p := range mine.tanks {
						if abs(x.X-p.X)+abs(x.Y-p.Y)-k <= h {
							return true
						}
					}
					return false
				}); ok {
					failures++
					t.Errorf("h=%d Δ=%d: a tank from %v reaches %v, within %d of the trail of %v", h, k, q, x, h, mine.tanks)
				}
			}
		}
	}

	far := []Pos{{-4 * diameter, -4 * diameter}} // tanks that bind no term
	for h := 1; h <= 4; h++ {
		for d := 0; d <= diameter; d++ {
			if d > 3*h+8 && d%7 != 0 && d != diameter {
				continue
			}
			// A box term binds: a point box and a wider one, approached by
			// one tank, or by two from different sides.
			point := &Box{MinX: 60, MinY: 40, MaxX: 60, MaxY: 40}
			wide := &Box{MinX: 60, MinY: 40, MaxX: 63, MaxY: 42}
			check(h, side{far, point}, side{tanks: []Pos{{60 - d/2, 40 - (d - d/2)}}})
			check(h, side{far, wide}, side{tanks: []Pos{{63 + d, 41}, {60 - d - 2, 40}}})
			check(h, side{tanks: []Pos{{63, 42 + d}, {61, 42 + d + 1}}}, side{far, wide})
			// The tank term binds: one and two tanks a side.
			check(h, side{tanks: []Pos{{0, 0}}}, side{tanks: []Pos{{d - d/3, d / 3}}})
			check(h, side{tanks: []Pos{{0, 0}, {-5, 2}}}, side{tanks: []Pos{{d, 0}, {d + 1, 3}}})
			// Both kinds at once.
			check(h, side{[]Pos{{0, 0}}, &Box{MinX: 2, MinY: 0, MaxX: 2 + d/4, MaxY: 1}}, side{tanks: []Pos{{d, 1}}})
		}
	}

	rng := rand.New(rand.NewSource(1))
	pos := func() Pos { return Pos{rng.Intn(width), rng.Intn(height)} }
	randomSide := func() side {
		s := side{tanks: []Pos{pos()}}
		if rng.Intn(2) == 0 {
			s.tanks = append(s.tanks, pos())
		}
		if rng.Intn(3) > 0 {
			p := pos()
			s.box = &Box{MinX: p.X, MinY: p.Y, MaxX: p.X + rng.Intn(6), MaxY: p.Y + rng.Intn(6)}
		}
		return s
	}
	for i := 0; i < 1500; i++ {
		check(1+rng.Intn(4), randomSide(), randomSide())
	}
}

func TestNextDeltaCloseTanksEveryTick(t *testing.T) {
	a, b := []Pos{{5, 5}}, []Pos{{6, 5}}
	if got := NextDelta(2, a, nil, b, nil); got != 1 {
		t.Errorf("adjacent tanks delta = %d, want 1", got)
	}
}

func TestAlignmentPossible(t *testing.T) {
	a := []Pos{{5, 5}}
	if !AlignmentPossible(a, []Pos{{5, 20}}, 0) {
		t.Error("same column not aligned")
	}
	if AlignmentPossible(a, []Pos{{10, 10}}, 1) {
		t.Error("5-off diagonal aligned with slack 1")
	}
	if !AlignmentPossible(a, []Pos{{10, 10}}, 3) {
		t.Error("5-off diagonal not alignable with slack 3")
	}
}

func TestWithinRangeAndBoxApproach(t *testing.T) {
	a, b := []Pos{{0, 0}}, []Pos{{10, 0}}
	if WithinRange(a, b, 3, 1) {
		t.Error("distance 10 within range 3+2")
	}
	if !WithinRange(a, b, 3, 4) {
		t.Error("distance 10 not within range 3+8")
	}
	box := &Box{MinX: 8, MinY: 0, MaxX: 9, MaxY: 0}
	if !BoxApproach(b, box, 2, 1) {
		t.Error("tank adjacent to box not detected")
	}
	if BoxApproach(a, box, 2, 1) {
		t.Error("far tank flagged as approaching box")
	}
	if BoxApproach(a, nil, 2, 5) {
		t.Error("nil box approached")
	}
}

func TestBoxOfObjects(t *testing.T) {
	cfg := DefaultConfig(2, 1)
	var box Box
	if b := BoxOfObjectsInto(&box, cfg, nil); b != nil {
		t.Error("empty object set should give nil box")
	}
	ids := []store.ID{cfg.ObjectOf(Pos{3, 4}), cfg.ObjectOf(Pos{8, 2}), cfg.ObjectOf(Pos{5, 3})}
	b := BoxOfObjectsInto(&box, cfg, ids)
	want := Box{MinX: 3, MinY: 2, MaxX: 8, MaxY: 4}
	if b != &box || box != want {
		t.Errorf("BoxOfObjectsInto = %+v, want %+v in place", b, want)
	}
}
