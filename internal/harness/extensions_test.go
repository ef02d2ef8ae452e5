package harness

import (
	"testing"

	"sdso/internal/game"
)

// TestCausalMatchesReference: with a per-tick barrier, causal memory is
// behaviorally lockstep — it must reproduce the reference exactly, like the
// lookahead protocols.
func TestCausalMatchesReference(t *testing.T) {
	for _, g := range referenceGames(6) {
		ref, err := game.RunReference(g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Game: g, Protocol: Causal})
		if err != nil {
			t.Fatalf("n=%d seed=%d: %v", g.Teams, g.Seed, err)
		}
		for i, st := range res.Stats {
			want := ref.Stats[i]
			if st != want {
				t.Errorf("n=%d seed=%d team %d:\n got %+v\nwant %+v", g.Teams, g.Seed, i, st, want)
			}
		}
	}
}

// TestCausalCostsMoreThanBSYNC: §2.3's argument measured — causal memory's
// vector timestamps inflate control bytes relative to BSYNC's scalar
// stamps for the same game.
func TestCausalCostsMoreThanBSYNC(t *testing.T) {
	g := game.DefaultConfig(8, 1)
	g.MaxTicks = 100
	ca, err := Run(Config{Game: g, Protocol: Causal})
	if err != nil {
		t.Fatal(err)
	}
	bs, err := Run(Config{Game: g, Protocol: BSYNC})
	if err != nil {
		t.Fatal(err)
	}
	caBytes, bsBytes := 0, 0
	for _, s := range ca.Metrics.Procs {
		caBytes += s.BytesSent
	}
	for _, s := range bs.Metrics.Procs {
		bsBytes += s.BytesSent
	}
	t.Logf("n=8 bytes/tick: CAUSAL %.1f, BSYNC %.1f",
		float64(caBytes)/float64(totalTicks(ca)), float64(bsBytes)/float64(totalTicks(bs)))
	// Same game, same tick structure; causal updates carry an n-entry
	// vector clock per message.
	if caBytes <= bsBytes {
		t.Errorf("causal bytes (%d) not above BSYNC bytes (%d)", caBytes, bsBytes)
	}
}

// TestLRCCompletesAndOutweighsEC: LRC finishes every configuration, and its
// notice boards make lock-transfer traffic heavier than EC's per-object
// grants — the paper's reason for choosing EC as the baseline ("LRC, on the
// other hand, must include information about changes to all shared data
// objects").
func TestLRCCompletesAndOutweighsEC(t *testing.T) {
	for _, teams := range []int{2, 4, 8} {
		g := game.DefaultConfig(teams, 1)
		g.MaxTicks = 120
		lr, err := Run(Config{Game: g, Protocol: LRC})
		if err != nil {
			t.Fatalf("LRC teams=%d: %v", teams, err)
		}
		reached := 0
		for _, st := range lr.Stats {
			if st.ReachedGoal {
				reached++
			}
		}
		if reached == 0 {
			t.Errorf("LRC teams=%d: nobody reached the goal", teams)
		}

		ecRes, err := Run(Config{Game: g, Protocol: EC})
		if err != nil {
			t.Fatalf("EC teams=%d: %v", teams, err)
		}
		lrBytes, ecBytes := 0, 0
		for _, s := range lr.Metrics.Procs {
			lrBytes += s.BytesSent
		}
		for _, s := range ecRes.Metrics.Procs {
			ecBytes += s.BytesSent
		}
		lrPerTick := float64(lrBytes) / float64(totalTicks(lr))
		ecPerTick := float64(ecBytes) / float64(totalTicks(ecRes))
		t.Logf("n=%d bytes/tick: LRC %.1f, EC %.1f", teams, lrPerTick, ecPerTick)
		if lrPerTick <= ecPerTick {
			t.Errorf("teams=%d: LRC bytes/tick (%.0f) not above EC (%.0f)", teams, lrPerTick, ecPerTick)
		}
	}
}

func totalTicks(r *Result) int {
	total := 0
	for _, st := range r.Stats {
		total += st.Ticks
	}
	if total == 0 {
		return 1
	}
	return total
}

// TestLRCDeterministic: LRC on the simulated cluster is reproducible.
func TestLRCDeterministic(t *testing.T) {
	g := game.DefaultConfig(4, 1)
	g.MaxTicks = 100
	a, err := Run(Config{Game: g, Protocol: LRC})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Game: g, Protocol: LRC})
	if err != nil {
		t.Fatal(err)
	}
	if a.Metrics.TotalMsgs() != b.Metrics.TotalMsgs() || a.VirtualDuration != b.VirtualDuration {
		t.Errorf("LRC runs differ: %d/%v vs %d/%v",
			a.Metrics.TotalMsgs(), a.VirtualDuration, b.Metrics.TotalMsgs(), b.VirtualDuration)
	}
}

func TestUnknownProtocol(t *testing.T) {
	if _, err := Run(Config{Game: game.DefaultConfig(2, 1), Protocol: "NOPE"}); err == nil {
		t.Error("unknown protocol accepted")
	}
}
