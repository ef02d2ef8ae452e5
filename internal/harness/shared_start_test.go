package harness

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
	"time"

	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/protocol/lookahead"
	"sdso/internal/store"
	"sdso/internal/transport"
)

// startChecksum digests everything a game's start shares between players:
// every block's initial bytes (through a store over the baseline, which
// serializes exactly them), the tank table and the goal.
func startChecksum(s *game.Start) [sha256.Size]byte {
	h := sha256.New()
	h.Write(s.NewStore().Snapshot(0))
	fmt.Fprint(h, s.Tanks, s.Goal)
	return [sha256.Size]byte(h.Sum(nil))
}

// playOverMem plays one lookahead game on goroutine players over the
// in-memory transport — real interleavings, for the race detector's sake —
// and returns the stats and each player's final store.
func playOverMem(t *testing.T, g game.Config, apply func(*lookahead.PlayerConfig)) ([]game.TeamStats, []*store.Store) {
	t.Helper()
	net := transport.NewMemNetwork(g.Teams)
	defer net.Close()
	stats := make([]game.TeamStats, g.Teams)
	errs := make([]error, g.Teams)
	stores := make([]*store.Store, g.Teams)
	var wg sync.WaitGroup
	for i := range stats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pc := lookahead.PlayerConfig{
				Game: g, Endpoint: net.Endpoint(i), Metrics: metrics.NewCollector(),
				Snapshot: func(st *store.Store) { stores[i] = st },
			}
			apply(&pc)
			stats[i], errs[i] = lookahead.RunPlayer(pc)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("player %d: %v", i, err)
		}
	}
	return stats, stores
}

// TestSharedStartIsNeverWritten proves what the copy-on-write replica
// assumes: the players of a process all stand on one game.Start, and whole
// games — every lookahead variant over goroutine players, a crash and
// rejoin under loss, entry and lazy release consistency — leave it as they
// found it, give the results they gave when every player generated and
// registered a world of its own, and keep the race detector silent.
func TestSharedStartIsNeverWritten(t *testing.T) {
	g := game.DefaultConfig(8, 1)
	g.Seed, g.MaxTicks = 3, 200
	start, err := game.StartOf(g)
	if err != nil {
		t.Fatal(err)
	}
	before := startChecksum(start)
	ref, err := game.RunReference(g)
	if err != nil {
		t.Fatal(err)
	}
	final := ref.Final.Encode()

	for _, proto := range []lookahead.Protocol{lookahead.BSYNC, lookahead.MSYNC2} {
		for name, features := range map[string]func(*lookahead.PlayerConfig){
			"plain":           func(*lookahead.PlayerConfig) {},
			"delta":           func(pc *lookahead.PlayerConfig) { pc.DeltaEncode = true },
			"interest+shards": func(pc *lookahead.PlayerConfig) { pc.DeltaEncode, pc.Interest, pc.Shards = true, true, 4 },
		} {
			t.Run(fmt.Sprintf("%v/%s", proto, name), func(t *testing.T) {
				stats, stores := playOverMem(t, g, func(pc *lookahead.PlayerConfig) {
					pc.Protocol = proto
					features(pc)
				})
				for i, st := range stats {
					if st != ref.Stats[i] {
						t.Errorf("team %d: %+v, reference %+v", i, st, ref.Stats[i])
					}
				}
				// The freshest copy of every block across the group is the
				// reference's final board.
				for id := store.ID(0); int(id) < g.NumObjects(); id++ {
					var best []byte
					bestVer := int64(-1)
					for _, st := range stores {
						if v, err := st.Version(id); err != nil {
							t.Fatal(err)
						} else if v > bestVer {
							bestVer = v
							best, _ = st.View(id)
						}
					}
					if want, _ := final.View(id); string(best) != string(want) {
						t.Fatalf("block %d ends as %v, reference %v", id, best, want)
					}
				}
			})
		}
	}

	// Deterministic runs on the simulated cluster, pinned to what they
	// measured at the parent commit, when each player registered its own
	// world into an eager store.
	for _, tc := range []struct {
		proto    Protocol
		duration time.Duration
		msgs     int
	}{
		{EC, 5793646400, 5116},
		{LRC, 5777277600, 5135},
	} {
		res, err := Run(Config{Game: g, Protocol: tc.proto})
		if err != nil {
			t.Fatalf("%s: %v", tc.proto, err)
		}
		if res.VirtualDuration != tc.duration || res.Metrics.TotalMsgs() != tc.msgs {
			t.Errorf("%s: %v and %d messages, the eager store gave %v and %d",
				tc.proto, res.VirtualDuration, res.Metrics.TotalMsgs(), tc.duration, tc.msgs)
		}
	}
	if again, err := game.StartOf(g); err != nil || again != start {
		t.Errorf("the games did not share the start they were given (err %v)", err)
	}
	if startChecksum(start) != before {
		t.Error("a game wrote through the shared start")
	}

	// A crash and a rejoin under loss: the survivors stand on the start,
	// the joiner restores from their checkpoints and takes only its goal.
	chaos := rejoinConfig(BSYNC, 42)
	chaos.DeltaEncode = true
	cstart, err := game.StartOf(chaos.Game)
	if err != nil {
		t.Fatal(err)
	}
	cbefore := startChecksum(cstart)
	res, err := RunChaos(chaos)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Crashed || !res.Rejoined {
		t.Fatalf("crashed=%v rejoined=%v, want both", res.Crashed, res.Rejoined)
	}
	// The eager store gave 569.1956ms and 489 messages before departed peers
	// stopped being sent frames; under loss a wrongly marked peer's frame
	// goes late, which costs time.
	if d, m, s := res.VirtualDuration, res.Metrics.TotalMsgs(), res.Metrics.Sum(func(s metrics.Snapshot) int { return s.SnapshotBytes }); d != 585471600 || m != 484 || s != 110664 {
		t.Errorf("rejoin: %v, %d messages, %d snapshot bytes; want 585.4716ms, 484, 110664", d, m, s)
	}
	if startChecksum(cstart) != cbefore {
		t.Error("the crash-and-rejoin game wrote through the shared start")
	}
}
