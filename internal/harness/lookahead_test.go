package harness

import (
	"reflect"
	"testing"

	"sdso/internal/game"
)

// referenceGames are the games a lockstep protocol must play exactly as the
// reference does: three seeds of n = 8 (n = teams) for 150 ticks, and
// lastTickHit.
func referenceGames(teams int) []game.Config {
	var out []game.Config
	for seed := int64(1); seed <= 3; seed++ {
		g := game.DefaultConfig(teams, 1)
		g.Seed, g.MaxTicks = seed, 150
		out = append(out, g)
	}
	return append(out, lastTickHit())
}

// lastTickHit is a game whose last tick (5) hits team 11's only tank: the
// reference's end-of-tick death pass marks the team destroyed, so a driver
// that plays to the horizon must read its own blocks once more there.
func lastTickHit() game.Config {
	g := game.DefaultConfig(16, 1)
	g.Seed, g.MaxTicks = 1, 5
	return g
}

// TestVtimeLookaheadMatchesReference runs the lookahead protocols on the
// simulated cluster and checks exact equivalence with the lockstep
// reference — the deterministic counterpart of the memnet tests.
func TestVtimeLookaheadMatchesReference(t *testing.T) {
	for _, proto := range LookaheadProtocols {
		for _, g := range referenceGames(8) {
			ref, err := game.RunReference(g)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Config{Game: g, Protocol: proto})
			if err != nil {
				t.Fatalf("%s n=%d seed=%d: %v", proto, g.Teams, g.Seed, err)
			}
			for i, st := range res.Stats {
				want := ref.Stats[i]
				if st.Mods != want.Mods || st.Ticks != want.Ticks || st.Score != want.Score ||
					st.ReachedGoal != want.ReachedGoal || st.Destroyed != want.Destroyed {
					t.Errorf("%s n=%d seed=%d team %d:\n got %+v\nwant %+v", proto, g.Teams, g.Seed, i, st, want)
				}
			}
		}
	}
}

// TestVtimeDeterministic: identical configs produce identical measurements.
func TestVtimeDeterministic(t *testing.T) {
	g := game.DefaultConfig(8, 1)
	g.MaxTicks = 120
	a, err := Run(Config{Game: g, Protocol: MSYNC})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Game: g, Protocol: MSYNC})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Error("stats differ between identical runs")
	}
	if a.VirtualDuration != b.VirtualDuration {
		t.Errorf("virtual durations differ: %v vs %v", a.VirtualDuration, b.VirtualDuration)
	}
	if a.Metrics.TotalMsgs() != b.Metrics.TotalMsgs() {
		t.Errorf("message counts differ: %d vs %d", a.Metrics.TotalMsgs(), b.Metrics.TotalMsgs())
	}
}
