package harness

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"sdso/internal/faultnet"
	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/trace"
)

// TestChaosECLateJoinRejected: EC plus a late join is an unsupported
// combination and must be reported as such before any endpoint spins up —
// including when LateJoinTeam is out of range, which withChaosDefaults
// normalizes by zeroing LateJoinAt and used to silently run the experiment
// without the late join the caller asked for.
func TestChaosECLateJoinRejected(t *testing.T) {
	g := game.DefaultConfig(4, 1)
	g.MaxTicks = 10
	for _, team := range []int{1, -3, 99} {
		cfg := ChaosConfig{
			Config:       Config{Game: g, Protocol: EC},
			Seed:         1,
			CrashTeam:    -1,
			LateJoinTeam: team,
			LateJoinAt:   5 * time.Millisecond,
		}
		res, err := RunChaos(cfg)
		if err == nil || !strings.Contains(err.Error(), "late join") {
			t.Errorf("LateJoinTeam=%d: want a late-join error, got res=%v err=%v", team, res, err)
		}
	}
}

// holderLossConfig is the checkpoint acceptance scenario: under MSYNC2's
// spatial withholding, most of team 2's early writes reach only team 3
// (the probe below proves it — without replication the rejoined victim is
// missing them, so nobody else ever held them). Both holders die at tick
// 14: team 2 crash-stops and restarts, team 3 crash-stops permanently.
// When team 2 rejoins, every process that ever held those pre-crash writes
// is gone. (The board was re-picked when retransmitted SYNCs stopped
// losing their beacons: the previous one isolated the holder set only
// because a wiped beacon left the survivors' filters stale.)
func holderLossConfig(recs []*trace.Recorder, snaps []*store.Store) ChaosConfig {
	g := game.DefaultConfig(4, 1)
	g.Seed = 22
	g.MaxTicks = 60
	cfg := ChaosConfig{
		Config:       Config{Game: g, Protocol: MSYNC2},
		Seed:         1,
		CrashTeam:    2,
		CrashTick:    14,
		ExtraCrashes: map[int]faultnet.Crash{3: {AtTick: 14}},
		Traces:       recs,
		Snapshot:     func(team int, st *store.Store) { snaps[team] = st.Clone() },
	}
	cfg.RestartAfter = rejoinDowntime(cfg)
	return cfg
}

// lostWrites returns how many of the victim's recoverable pre-crash
// writes (from its first life's trace) are missing from final: entries
// whose object sits below the written version, i.e. state the recovery
// failed to restore. The victim's final tick of writes (Time =
// crashTick-1) is excluded: the exchange that follows them is stamped
// crashTick and the crash fires on its first send, so those writes never
// escape the process in any form — not as data, not as a checkpoint —
// and are legitimately lost under fail-stop. Everything older was
// streamed by the end of the previous exchange.
func lostWrites(t *testing.T, rec *trace.Recorder, crashTick int64, final *store.Store) (lost, total int) {
	t.Helper()
	for _, ev := range rec.Events() {
		if ev.Op != trace.OpWrite || ev.Time >= crashTick-1 {
			continue
		}
		total++
		v, err := final.Version(store.ID(ev.Obj))
		if err != nil || v < ev.Ver {
			lost++
		}
	}
	if total == 0 {
		t.Fatal("victim recorded no pre-crash writes; the scenario is vacuous")
	}
	return lost, total
}

// TestChaosCheckpointSurvivesHolderSetCrash is the replication acceptance
// pair. Default mode: the run completes but the rejoined victim has
// provably lost pre-crash writes — its checkpoint sources never held them.
// Checkpoint mode (CheckpointEvery=1, CheckpointF=1): the same scenario
// recovers every pre-crash write, because each tick's snapshot was vaulted
// by two peers and the survivors folded and relayed the vault when they
// evicted the victim.
func TestChaosCheckpointSurvivesHolderSetCrash(t *testing.T) {
	run := func(ckptEvery int64) (*ChaosResult, []*trace.Recorder, []*store.Store) {
		recs := make([]*trace.Recorder, 4)
		for i := range recs {
			recs[i] = trace.NewRecorder(i)
		}
		snaps := make([]*store.Store, 4)
		cfg := holderLossConfig(recs, snaps)
		cfg.CheckpointEvery = ckptEvery
		cfg.CheckpointF = 1
		res, err := RunChaos(cfg)
		if err != nil {
			t.Fatalf("CheckpointEvery=%d: %v", ckptEvery, err)
		}
		if !res.Crashed || !res.Rejoined {
			t.Fatalf("CheckpointEvery=%d: crash/rejoin did not fire: crashed=%v rejoined=%v",
				ckptEvery, res.Crashed, res.Rejoined)
		}
		if snaps[2] == nil {
			t.Fatalf("CheckpointEvery=%d: rejoined victim reported no final store", ckptEvery)
		}
		return res, recs, snaps
	}

	// Default mode: provable write loss. The victim rejoined from peer
	// checkpoints, so every write missing from its own final store was
	// held by no surviving process — its entire holder set died with
	// team 3.
	_, recs, snaps := run(0)
	lost, total := lostWrites(t, recs[2], 14, snaps[2])
	if lost == 0 {
		t.Fatalf("default mode: expected the crash to lose pre-crash writes (total %d); the scenario no longer isolates the holder set", total)
	}
	t.Logf("default mode: lost %d of %d pre-crash writes", lost, total)

	// Checkpoint mode: the same crash loses nothing.
	res, recs, snaps := run(1)
	if lost, total := lostWrites(t, recs[2], 14, snaps[2]); lost != 0 {
		t.Errorf("checkpoint mode: %d of %d pre-crash writes lost after rejoin", lost, total)
	}
	// The survivors folded the victim's vaulted snapshot when they evicted
	// it, so its pre-crash writes are on every surviving replica too.
	for _, team := range []int{0, 1} {
		if snaps[team] == nil {
			t.Fatalf("survivor %d reported no final store", team)
		}
		if lost, total := lostWrites(t, recs[2], 14, snaps[team]); lost != 0 {
			t.Errorf("survivor %d: missing %d of the victim's %d pre-crash writes", team, lost, total)
		}
	}
	if res.Metrics.ReplicaCatchups() == 0 {
		t.Error("checkpoint mode: no replica catch-ups recorded; recovery did not go through the vault")
	}
	if res.Metrics.QuorumRounds() == 0 {
		t.Error("checkpoint mode: no checkpoint rounds recorded")
	}
}

// TestQuorumAnalysisRuns: the sdso-bench quorum panel completes on every
// scenario and actually exercises the replication machinery.
func TestQuorumAnalysisRuns(t *testing.T) {
	lines, err := quorumPanel([]int64{1}).play(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	for _, l := range lines {
		if total(func(s metrics.Snapshot) int { return s.QuorumRounds }, l.games[0]...) == 0 {
			t.Errorf("%s: no quorum rounds", l.key.label)
		}
		if total(func(s metrics.Snapshot) int { return s.ReplicaCatchups }, l.games[0]...) == 0 {
			t.Errorf("%s: no replica catch-ups", l.key.label)
		}
	}
}

// TestChaosQuorumSeedMatrix is the CI quorum-chaos-matrix entry point:
// CHAOS_SEED picks the fault seed (default 13) and the test runs every
// replication scenario from the bench panel — EC majority-replicated lock
// state and MSYNC2 f+1 checkpoint streaming, each at f=1 and f=2 — twice,
// demanding that the crash fired, the victim rejoined, the replication
// machinery engaged, and both runs replayed byte-identically.
func TestChaosQuorumSeedMatrix(t *testing.T) {
	seed := int64(13)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	for _, sc := range []struct {
		name  string
		proto Protocol
		teams int
		f     int
	}{
		{"EC-f1", EC, 4, 1},
		{"EC-f2", EC, 5, 2},
		{"MSYNC2-f1", MSYNC2, 4, 1},
		{"MSYNC2-f2", MSYNC2, 5, 2},
	} {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			a, err := RunChaos(quorumScenario(sc.proto, sc.teams, sc.f, seed))
			if err != nil {
				t.Fatalf("seed %d first run: %v", seed, err)
			}
			if !a.Crashed || !a.Rejoined {
				t.Fatalf("seed %d: crashed=%v rejoined=%v, want both", seed, a.Crashed, a.Rejoined)
			}
			if a.Metrics.QuorumRounds() == 0 {
				t.Fatalf("seed %d: no quorum rounds recorded; replication never engaged", seed)
			}
			b, err := RunChaos(quorumScenario(sc.proto, sc.teams, sc.f, seed))
			if err != nil {
				t.Fatalf("seed %d second run: %v", seed, err)
			}
			assertSameRun(t, a, b)
		})
	}
}

// TestChaosECQuorumFailover: a full EC chaos run with quorum-replicated
// lock state — the crashed node's lock-manager shard is reconstructed from
// a majority, the game completes, and the quorum counters show the
// machinery actually ran.
func TestChaosECQuorumFailover(t *testing.T) {
	g := game.DefaultConfig(3, 1)
	g.Seed = 7
	g.MaxTicks = 30
	cfg := ChaosConfig{
		Config:       Config{Game: g, Protocol: EC},
		Seed:         3,
		CrashTeam:    1,
		CrashAfter:   10 * time.Millisecond,
		RestartAfter: 290 * time.Millisecond,
		QuorumF:      1,
	}
	res, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed || !res.Rejoined {
		t.Fatalf("crash/rejoin did not fire: crashed=%v rejoined=%v", res.Crashed, res.Rejoined)
	}
	if res.Metrics.QuorumRounds() == 0 {
		t.Error("no quorum rounds recorded; replication never engaged")
	}
}
