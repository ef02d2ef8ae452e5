package harness

import (
	"testing"

	"sdso/internal/game"
)

// TestCentralCompletes: the client-server alternative plays valid games.
func TestCentralCompletes(t *testing.T) {
	for _, teams := range []int{2, 4, 8} {
		g := game.DefaultConfig(teams, 1)
		g.MaxTicks = 150
		g.EndOnFirstGoal = true
		res, err := Run(Config{Game: g, Protocol: Central})
		if err != nil {
			t.Fatalf("teams=%d: %v", teams, err)
		}
		reached := 0
		for _, st := range res.Stats {
			if st.ReachedGoal {
				reached++
			}
		}
		if reached == 0 {
			t.Errorf("teams=%d: nobody reached the goal", teams)
		}
	}
}

// TestCentralServerBottleneck: the paper's §2.1 motivation, measured. The
// central server's normalized cost must grow faster with the process count
// than MSYNC2's: every message crosses the single server NIC, while S-DSO
// distributes both state and traffic.
func TestCentralServerBottleneck(t *testing.T) {
	norm := func(p Protocol, n int) float64 {
		g := game.DefaultConfig(n, 1)
		g.MaxTicks = 150
		g.EndOnFirstGoal = true
		res, err := Run(Config{Game: g, Protocol: p})
		if err != nil {
			t.Fatalf("%s n=%d: %v", p, n, err)
		}
		return MetricNormalizedTime(res)
	}
	centralGrowth := norm(Central, 16) / norm(Central, 2)
	msync2Growth := norm(MSYNC2, 16) / norm(MSYNC2, 2)
	if centralGrowth <= msync2Growth {
		t.Errorf("central growth 2->16 (%.2fx) not above MSYNC2 (%.2fx): server should bottleneck",
			centralGrowth, msync2Growth)
	}
}

// TestCentralDeterministic: reproducible on the simulated cluster.
func TestCentralDeterministic(t *testing.T) {
	g := game.DefaultConfig(4, 1)
	g.MaxTicks = 100
	g.EndOnFirstGoal = true
	a, err := Run(Config{Game: g, Protocol: Central})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Game: g, Protocol: Central})
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.TotalMsgs() != b.Metrics.TotalMsgs() || a.VirtualDuration != b.VirtualDuration {
		t.Errorf("central runs differ: %d/%v vs %d/%v",
			a.Metrics.TotalMsgs(), a.VirtualDuration, b.Metrics.TotalMsgs(), b.VirtualDuration)
	}
}

// TestCentralTeamsPlayOnWithoutRace: with EndOnFirstGoal off each team plays
// until its own goal, destruction or the horizon (game.Config) — one team's
// win does not stop the others.
func TestCentralTeamsPlayOnWithoutRace(t *testing.T) {
	for _, rng := range []int{1, 3} {
		g := game.DefaultConfig(6, rng)
		g.Seed, g.MaxTicks, g.TanksPerTeam = 3, 60, (rng+1)/2
		res, err := Run(Config{Game: g, Protocol: Central})
		if err != nil {
			t.Fatalf("range %d: %v", rng, err)
		}
		for _, st := range res.Stats {
			if !st.ReachedGoal && !st.Destroyed && st.Ticks != g.MaxTicks {
				t.Errorf("range %d team %d stopped at tick %d with neither goal nor death: %+v",
					rng, st.Team, st.DoneTick, st)
			}
		}
	}
}
