package harness

import (
	"testing"
	"time"

	"sdso/internal/game"
)

// TestLookaheadSurvivesJitter is failure injection: with up to 20ms of
// random per-message delay (an order of magnitude above the base RTT),
// messages from different senders reorder arbitrarily — yet the protocols
// must still reproduce the reference exactly, because correctness rides on
// logical stamps, version gating, and early-message buffering rather than
// arrival order. The jitter is vtime.Jitter's, through simCluster's jitter
// field, the seam RunChecked uses.
func TestLookaheadSurvivesJitter(t *testing.T) {
	for _, proto := range LookaheadProtocols {
		for _, jitterSeed := range []int64{1, 99} {
			g := game.DefaultConfig(8, 1)
			g.MaxTicks = 150
			ref, err := game.RunReference(g)
			if err != nil {
				t.Fatal(err)
			}
			res, err := run(Config{Game: g, Protocol: proto}, simCluster{jitter: 20 * time.Millisecond, seed: jitterSeed})
			if err != nil {
				t.Fatalf("%s jitterSeed=%d: %v", proto, jitterSeed, err)
			}
			for i, st := range res.Stats {
				want := ref.Stats[i]
				if st.Mods != want.Mods || st.Ticks != want.Ticks || st.Score != want.Score ||
					st.ReachedGoal != want.ReachedGoal || st.Destroyed != want.Destroyed {
					t.Errorf("%s jitterSeed=%d team %d:\n got %+v\nwant %+v",
						proto, jitterSeed, i, st, want)
				}
			}
		}
	}
}

// TestECSurvivesJitter: the lock-based baseline also completes with sane
// outcomes under reordering (its request/reply pairs are per-pair FIFO).
func TestECSurvivesJitter(t *testing.T) {
	g := game.DefaultConfig(6, 1)
	g.MaxTicks = 120
	g.EndOnFirstGoal = true
	res, err := run(Config{Game: g, Protocol: EC}, simCluster{jitter: 20 * time.Millisecond, seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	reached := 0
	for _, st := range res.Stats {
		if st.ReachedGoal {
			reached++
		}
	}
	if reached == 0 {
		t.Error("EC under jitter: nobody reached the goal")
	}
}
