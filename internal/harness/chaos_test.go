package harness

import (
	"os"
	"strconv"
	"testing"
	"time"

	"sdso/internal/faultnet"
	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/transport"
)

// chaosConfig builds the standard crash experiment: four teams on a lossy,
// duplicating network with team 1 crash-stopping mid-game.
func chaosConfig(proto Protocol, seed int64) ChaosConfig {
	g := game.DefaultConfig(4, 1)
	g.Seed = 7
	g.MaxTicks = 40
	cfg := ChaosConfig{
		Config:    Config{Game: g, Protocol: proto},
		Seed:      seed,
		Faults:    faultnet.LinkFaults{DropProb: 0.01, DupProb: 0.01},
		CrashTeam: 1,
	}
	if proto == EC {
		cfg.CrashAfter = 10 * time.Millisecond
	} else {
		cfg.CrashTick = 10
	}
	return cfg
}

// rejoinConfig extends the crash experiment with a scheduled restart: the
// victim revives mid-game and must re-enter via a peer checkpoint.
func rejoinConfig(proto Protocol, seed int64) ChaosConfig {
	cfg := chaosConfig(proto, seed)
	if proto == EC {
		cfg.RestartAfter = 290 * time.Millisecond
	} else {
		cfg.RestartAfter = rejoinDowntime(cfg)
	}
	return cfg
}

// rejoinDowntime keeps a lookahead crash victim down until its peers have
// evicted it and no longer, so the game it left still has ticks to play
// however fast the protocol plays them. The eviction bound is the one span
// of a crash-restart plan protocol speed does not set: a peer awaiting a
// silent process waits the suspicion timeout, then a doubling wait (capped
// at 8×) per retransmission — 75 ms at the chaos defaults. One more maximal
// wait is added because peers start waiting up to a rendezvous after the
// crash fires.
func rejoinDowntime(cfg ChaosConfig) time.Duration {
	cfg = cfg.withChaosDefaults()
	bound := time.Duration(0)
	for s := range transport.RetransmitBudget(cfg.MaxRetransmits) + 2 {
		bound += transport.SuspectWait(cfg.SuspectTimeout, s)
	}
	return bound
}

// assertSameRun demands two chaos runs be byte-identical: same fault
// decisions, same stats, same virtual duration.
func assertSameRun(t *testing.T, a, b *ChaosResult) {
	t.Helper()
	if a.VirtualDuration != b.VirtualDuration {
		t.Errorf("virtual duration diverged: %v vs %v", a.VirtualDuration, b.VirtualDuration)
	}
	if len(a.DecisionLogs) != len(b.DecisionLogs) {
		t.Fatalf("decision log count diverged: %d vs %d", len(a.DecisionLogs), len(b.DecisionLogs))
	}
	for i := range a.DecisionLogs {
		if a.DecisionLogs[i] != b.DecisionLogs[i] {
			t.Errorf("endpoint %d fault decisions diverged:\n  %q\n  %q",
				i, a.DecisionLogs[i], b.DecisionLogs[i])
		}
	}
	for i := range a.Stats {
		if a.Stats[i] != b.Stats[i] {
			t.Errorf("team %d stats diverged: %+v vs %+v", i, a.Stats[i], b.Stats[i])
		}
	}
	for name, count := range map[string]func(metrics.Snapshot) int{
		"retransmits":    func(s metrics.Snapshot) int { return s.Retransmits },
		"evictions":      func(s metrics.Snapshot) int { return s.Evictions },
		"joins":          func(s metrics.Snapshot) int { return s.Joins },
		"snapshot bytes": func(s metrics.Snapshot) int { return s.SnapshotBytes },
		"catchup diffs":  func(s metrics.Snapshot) int { return s.CatchupDiffs },
	} {
		if pair := [2]int{a.Metrics.Sum(count), b.Metrics.Sum(count)}; pair[0] != pair[1] {
			t.Errorf("%s diverged: %d vs %d", name, pair[0], pair[1])
		}
	}
}

// TestChaosRejoin is the rejoin acceptance test: under every paper protocol
// a player crash-stops mid-game, revives at the scheduled restart instant,
// re-enters the running game from a peer checkpoint, and the game completes.
func TestChaosRejoin(t *testing.T) {
	for _, proto := range PaperProtocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			cfg := rejoinConfig(proto, 42)
			res, err := RunChaos(cfg)
			if err != nil {
				t.Fatalf("rejoin chaos run: %v", err)
			}
			if !res.Crashed {
				t.Fatalf("configured crash of team %d never fired", cfg.CrashTeam)
			}
			if !res.Rejoined {
				t.Fatalf("crashed team %d never rejoined", cfg.CrashTeam)
			}
			for i, st := range res.Stats {
				if st.Ticks == 0 {
					t.Errorf("player %d played no ticks", i)
				}
			}
			if got := res.Metrics.Sum(func(s metrics.Snapshot) int { return s.Joins }); got == 0 {
				t.Errorf("no joins recorded despite a completed rejoin")
			}
			if got := res.Metrics.Sum(func(s metrics.Snapshot) int { return s.SnapshotBytes }); got == 0 {
				t.Errorf("no snapshot bytes recorded; state transfer never happened")
			}
			if got := res.Metrics.Sum(func(s metrics.Snapshot) int { return s.CatchupDiffs }); got == 0 {
				t.Errorf("no catch-up diffs recorded; the joiner adopted nothing")
			}
		})
	}
}

// TestChaosRejoinDeterministic runs the rejoin experiment twice per protocol
// and demands byte-identical outcomes — crash, downtime, state transfer, and
// catch-up all replay exactly from the seed.
func TestChaosRejoinDeterministic(t *testing.T) {
	for _, proto := range PaperProtocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			// Seed 13 (unlike some) makes the crash fire under every
			// protocol: a victim isolated by spurious evictions before its
			// crash tick sends nothing and so never trips the tick trigger.
			a, err := RunChaos(rejoinConfig(proto, 13))
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := RunChaos(rejoinConfig(proto, 13))
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if !a.Rejoined || !b.Rejoined {
				t.Fatalf("rejoin did not complete (%v, %v)", a.Rejoined, b.Rejoined)
			}
			assertSameRun(t, a, b)
		})
	}
}

// TestChaosLateJoin starts a lookahead game with one team absent; the
// latecomer joins mid-game via the same checkpointed admission path a
// restarted process uses, and everyone finishes.
func TestChaosLateJoin(t *testing.T) {
	for _, proto := range []Protocol{BSYNC, MSYNC, MSYNC2} {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			cfg := chaosConfig(proto, 11)
			cfg.CrashTeam = -1
			cfg.CrashTick = 0
			cfg.LateJoinTeam = 2
			cfg.LateJoinAt = 100 * time.Millisecond
			res, err := RunChaos(cfg)
			if err != nil {
				t.Fatalf("late-join run: %v", err)
			}
			if res.Crashed {
				t.Errorf("no crash configured but one was reported")
			}
			if !res.Rejoined {
				t.Fatalf("late joiner was never admitted")
			}
			for i, st := range res.Stats {
				if st.Ticks == 0 {
					t.Errorf("player %d played no ticks", i)
				}
			}
			if got := res.Metrics.Sum(func(s metrics.Snapshot) int { return s.Joins }); got == 0 {
				t.Errorf("no joins recorded despite a completed late join")
			}
		})
	}
}

// TestChaosSeedMatrix is the CI chaos-matrix entry point: CHAOS_SEED picks
// the fault seed (default 13) and the test runs the full
// crash-restart-rejoin experiment twice under every paper protocol,
// demanding that the crash fired, the victim rejoined, and both runs
// replayed byte-identically. Matrix seeds must be ones under which the
// victim is not isolated by spurious evictions before its crash tick
// (checked for the seeds pinned in .github/workflows/ci.yml).
func TestChaosSeedMatrix(t *testing.T) {
	seed := int64(13)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	for _, proto := range PaperProtocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			a, err := RunChaos(rejoinConfig(proto, seed))
			if err != nil {
				t.Fatalf("seed %d first run: %v", seed, err)
			}
			if !a.Crashed || !a.Rejoined {
				t.Fatalf("seed %d: crashed=%v rejoined=%v, want both", seed, a.Crashed, a.Rejoined)
			}
			b, err := RunChaos(rejoinConfig(proto, seed))
			if err != nil {
				t.Fatalf("seed %d second run: %v", seed, err)
			}
			assertSameRun(t, a, b)
		})
	}
}

// TestChaosLateJoinEC documents the scope line: EC games model node rejoin
// (crash-then-restart), not late join.
func TestChaosLateJoinEC(t *testing.T) {
	cfg := chaosConfig(EC, 11)
	cfg.CrashTeam = -1
	cfg.CrashAfter = 0
	cfg.LateJoinTeam = 2
	cfg.LateJoinAt = 100 * time.Millisecond
	if _, err := RunChaos(cfg); err == nil {
		t.Fatalf("EC late join unexpectedly accepted")
	}
}

// TestChaosCrashMidGame is the tentpole acceptance test: under every paper
// protocol, a game whose player crash-stops mid-run still completes among the
// survivors, the crash is detected and the dead peer evicted, and the
// recovery machinery (retransmissions) visibly engaged.
func TestChaosCrashMidGame(t *testing.T) {
	for _, proto := range PaperProtocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			cfg := chaosConfig(proto, 42)
			res, err := RunChaos(cfg)
			if err != nil {
				t.Fatalf("chaos run: %v", err)
			}
			if !res.Crashed {
				t.Fatalf("configured crash of team %d never fired", cfg.CrashTeam)
			}
			for i, st := range res.Stats {
				if i == cfg.CrashTeam {
					continue
				}
				if st.Ticks == 0 {
					t.Errorf("survivor %d played no ticks", i)
				}
			}
			if got := res.Metrics.Sum(func(s metrics.Snapshot) int { return s.Evictions }); got == 0 {
				t.Errorf("no evictions recorded; crash went undetected")
			}
			if got := res.Metrics.Sum(func(s metrics.Snapshot) int { return s.Retransmits }); got == 0 {
				t.Errorf("no retransmits recorded; failure detection never probed")
			}
			if got := res.Metrics.Sum(func(s metrics.Snapshot) int { return s.Faults }); got == 0 {
				t.Errorf("no injected faults recorded despite drop/dup/crash plan")
			}
		})
	}
}

// TestChaosDeterministic runs the same chaos experiment twice and demands a
// byte-identical outcome: same fault decisions, same game stats, same virtual
// duration. This is what makes chaos failures reproducible from their seed.
func TestChaosDeterministic(t *testing.T) {
	for _, proto := range PaperProtocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			a, err := RunChaos(chaosConfig(proto, 99))
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			b, err := RunChaos(chaosConfig(proto, 99))
			if err != nil {
				t.Fatalf("second run: %v", err)
			}
			if a.VirtualDuration != b.VirtualDuration {
				t.Errorf("virtual duration diverged: %v vs %v", a.VirtualDuration, b.VirtualDuration)
			}
			if len(a.DecisionLogs) != len(b.DecisionLogs) {
				t.Fatalf("decision log count diverged: %d vs %d", len(a.DecisionLogs), len(b.DecisionLogs))
			}
			for i := range a.DecisionLogs {
				if a.DecisionLogs[i] != b.DecisionLogs[i] {
					t.Errorf("endpoint %d fault decisions diverged:\n  %q\n  %q",
						i, a.DecisionLogs[i], b.DecisionLogs[i])
				}
			}
			for i := range a.Stats {
				if a.Stats[i] != b.Stats[i] {
					t.Errorf("team %d stats diverged: %+v vs %+v", i, a.Stats[i], b.Stats[i])
				}
			}
			retransmits := func(s metrics.Snapshot) int { return s.Retransmits }
			if ar, br := a.Metrics.Sum(retransmits), b.Metrics.Sum(retransmits); ar != br {
				t.Errorf("retransmit count diverged: %d vs %d", ar, br)
			}
			evictions := func(s metrics.Snapshot) int { return s.Evictions }
			if ae, be := a.Metrics.Sum(evictions), b.Metrics.Sum(evictions); ae != be {
				t.Errorf("eviction count diverged: %d vs %d", ae, be)
			}
		})
	}
}

// TestChaosSuspectTimeoutIsTheConfigs: a chaos run has one failure-detection
// timeout, the embedded Config's. Set in the Config literal or through the
// promoted selector it runs the same crash game, and that game differs from
// the 5ms default's — the timeout paces the survivors' eviction of the
// victim.
func TestChaosSuspectTimeoutIsTheConfigs(t *testing.T) {
	literal := chaosConfig(BSYNC, 42)
	literal.Config = Config{Game: literal.Game, Protocol: BSYNC, SuspectTimeout: 40 * time.Millisecond}
	selector := chaosConfig(BSYNC, 42)
	selector.SuspectTimeout = 40 * time.Millisecond
	var res [3]*ChaosResult
	for i, cfg := range []ChaosConfig{literal, selector, chaosConfig(BSYNC, 42)} {
		r, err := RunChaos(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Crashed {
			t.Fatalf("run %d: the configured crash never fired", i)
		}
		res[i] = r
	}
	assertSameRun(t, res[0], res[1])
	if res[0].VirtualDuration == res[2].VirtualDuration {
		t.Errorf("a 40ms suspect timeout ran the game the 5ms default did (%v)", res[2].VirtualDuration)
	}
}

// TestChaosSeedsDiffer sanity-checks that the seed actually drives the fault
// plan: two different seeds on a lossy network should produce different
// decision logs somewhere.
func TestChaosSeedsDiffer(t *testing.T) {
	cfg1 := chaosConfig(BSYNC, 1)
	cfg2 := chaosConfig(BSYNC, 2)
	a, err := RunChaos(cfg1)
	if err != nil {
		t.Fatalf("seed 1: %v", err)
	}
	b, err := RunChaos(cfg2)
	if err != nil {
		t.Fatalf("seed 2: %v", err)
	}
	same := len(a.DecisionLogs) == len(b.DecisionLogs)
	if same {
		for i := range a.DecisionLogs {
			if a.DecisionLogs[i] != b.DecisionLogs[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Errorf("different seeds produced identical fault decisions")
	}
}

// TestChaosLossOnly drops and duplicates traffic with no crash: every player
// must still finish (retransmission and dedupe recover lost rendezvous), and
// nobody may be reported crashed.
func TestChaosLossOnly(t *testing.T) {
	for _, proto := range PaperProtocols {
		proto := proto
		t.Run(string(proto), func(t *testing.T) {
			cfg := chaosConfig(proto, 7)
			cfg.CrashTeam = -1
			cfg.CrashTick = 0
			cfg.CrashAfter = 0
			res, err := RunChaos(cfg)
			if err != nil {
				t.Fatalf("loss-only run: %v", err)
			}
			if res.Crashed {
				t.Errorf("no crash configured but one was reported")
			}
			for i, st := range res.Stats {
				if st.Ticks == 0 {
					t.Errorf("player %d played no ticks", i)
				}
			}
			if got := res.Metrics.Sum(func(s metrics.Snapshot) int { return s.Faults }); got == 0 {
				t.Errorf("no injected faults recorded despite drop/dup plan")
			}
		})
	}
}
