package lookahead

import (
	"sync"
	"testing"
	"time"

	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/transport"
)

// runGame plays a full game over an in-memory transport and returns each
// team's stats plus each process's final runtime store contents merged by
// version (the freshest copy of every object across the group).
func runGame(t *testing.T, cfg game.Config, proto Protocol) ([]game.TeamStats, *store.Store) {
	t.Helper()
	net := transport.NewMemNetwork(cfg.Teams)
	defer net.Close()

	stats := make([]game.TeamStats, cfg.Teams)
	errs := make([]error, cfg.Teams)
	stores := make([]*store.Store, cfg.Teams)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Teams; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pc := PlayerConfig{
				Game:     cfg,
				Protocol: proto,
				Endpoint: net.Endpoint(i),
				Metrics:  metrics.NewCollector(),
			}
			st, err := runPlayerCapture(pc, &stores[i])
			stats[i], errs[i] = st, err
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("game deadlocked")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("player %d: %v", i, err)
		}
	}

	merged := mergeByVersion(t, cfg, stores)
	return stats, merged
}

// runPlayerCapture runs a player and captures its final store.
func runPlayerCapture(pc PlayerConfig, out **store.Store) (game.TeamStats, error) {
	p, err := newPlayer(pc)
	if err != nil {
		return game.TeamStats{}, err
	}
	st, err := p.run()
	if err == nil {
		*out = p.rt.Store()
	}
	return st, err
}

// mergeByVersion picks, for every object, the highest-version replica —
// reconstructing the authoritative final world from the group's stores.
func mergeByVersion(t *testing.T, cfg game.Config, stores []*store.Store) *store.Store {
	t.Helper()
	merged := store.New()
	for i := 0; i < cfg.NumObjects(); i++ {
		id := store.ID(i)
		var best []byte
		bestVer := int64(-1)
		for _, st := range stores {
			if st == nil {
				continue
			}
			v, err := st.Version(id)
			if err != nil {
				t.Fatalf("version of %d: %v", id, err)
			}
			if v > bestVer {
				bestVer = v
				b, err := st.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				best = b
			}
		}
		if err := merged.Register(id, best); err != nil {
			t.Fatal(err)
		}
	}
	return merged
}

// TestProtocolMatchesReference is the paper's central correctness claim:
// the lookahead protocols perform "what appear to be sequentially
// consistent actions" — the distributed execution reproduces the lockstep
// reference exactly (per-team stats and the merged final world).
func TestProtocolMatchesReference(t *testing.T) {
	protos := []Protocol{BSYNC, MSYNC, MSYNC2}
	for _, teams := range []int{2, 4, 8} {
		for _, rng := range []int{1, 3} {
			for seed := int64(1); seed <= 3; seed++ {
				cfg := game.DefaultConfig(teams, rng)
				cfg.Seed = seed
				cfg.MaxTicks = 200
				ref, err := game.RunReference(cfg)
				if err != nil {
					t.Fatalf("reference teams=%d range=%d seed=%d: %v", teams, rng, seed, err)
				}
				for _, proto := range protos {
					stats, merged := runGame(t, cfg, proto)
					for i, st := range stats {
						if st != ref.Stats[i] {
							t.Errorf("%v teams=%d range=%d seed=%d team %d:\n got %+v\nwant %+v",
								proto, teams, rng, seed, i, st, ref.Stats[i])
						}
					}
					refWorld := ref.Final.Encode()
					if !merged.Equal(refWorld) {
						t.Errorf("%v teams=%d range=%d seed=%d: merged final world diverges from reference",
							proto, teams, rng, seed)
					}
				}
			}
		}
	}
}

// TestProtocolMessageOrdering: MSYNC2 must send no more data messages than
// MSYNC, which must send no more than BSYNC (its spatial filters are
// strictly tighter) — the mechanism behind the paper's Figure 7.
func TestProtocolMessageOrdering(t *testing.T) {
	cfg := game.DefaultConfig(6, 1)
	cfg.MaxTicks = 150
	counts := make(map[Protocol]int)
	for _, proto := range []Protocol{BSYNC, MSYNC, MSYNC2} {
		net := transport.NewMemNetwork(cfg.Teams)
		collectors := make([]*metrics.Collector, cfg.Teams)
		var wg sync.WaitGroup
		for i := 0; i < cfg.Teams; i++ {
			i := i
			collectors[i] = metrics.NewCollector()
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := RunPlayer(PlayerConfig{
					Game: cfg, Protocol: proto,
					Endpoint: net.Endpoint(i), Metrics: collectors[i],
				})
				if err != nil {
					t.Errorf("%v player %d: %v", proto, i, err)
				}
			}()
		}
		wg.Wait()
		net.Close()
		total := 0
		for _, c := range collectors {
			total += c.Snapshot().DataMsgs()
		}
		counts[proto] = total
	}
	if !(counts[MSYNC2] <= counts[MSYNC] && counts[MSYNC] <= counts[BSYNC]) {
		t.Errorf("data message ordering violated: BSYNC=%d MSYNC=%d MSYNC2=%d",
			counts[BSYNC], counts[MSYNC], counts[MSYNC2])
	}
	if counts[MSYNC2] == 0 {
		t.Error("MSYNC2 sent no data at all — filters too tight to be plausible")
	}
}

// TestMergeDiffsOffStillCorrect: disabling the slotted-buffer merge
// optimization must not change the outcome, only the payload volume — the
// same game with merging on ships no more bytes (paper §3.1; the simulated
// cluster's n=8 race-to-goal game recorded merged ≈ 85% of unmerged).
func TestMergeDiffsOffStillCorrect(t *testing.T) {
	cfg := game.DefaultConfig(4, 1)
	cfg.MaxTicks = 120
	ref, err := game.RunReference(cfg)
	if err != nil {
		t.Fatal(err)
	}
	play := func(merge bool) (bytesSent int) {
		net := transport.NewMemNetwork(cfg.Teams)
		defer net.Close()
		stats := make([]game.TeamStats, cfg.Teams)
		mcs := make([]*metrics.Collector, cfg.Teams)
		var wg sync.WaitGroup
		for i := 0; i < cfg.Teams; i++ {
			i := i
			mcs[i] = metrics.NewCollector()
			wg.Add(1)
			go func() {
				defer wg.Done()
				st, err := RunPlayer(PlayerConfig{
					Game: cfg, Protocol: MSYNC2,
					Endpoint: net.Endpoint(i), MergeDiffs: &merge, Metrics: mcs[i],
				})
				if err != nil {
					t.Errorf("merge=%v player %d: %v", merge, i, err)
				}
				stats[i] = st
			}()
		}
		wg.Wait()
		for i, st := range stats {
			if st != ref.Stats[i] {
				t.Errorf("merge=%v team %d: got %+v want %+v", merge, i, st, ref.Stats[i])
			}
			bytesSent += mcs[i].Snapshot().BytesSent
		}
		return bytesSent
	}
	unmerged, merged := play(false), play(true)
	t.Logf("MSYNC2 bytes sent: merged %d, unmerged %d (%.1f%%)", merged, unmerged, 100*float64(merged)/float64(unmerged))
	if merged > unmerged {
		t.Errorf("merging shipped %d bytes, more than the %d without it", merged, unmerged)
	}
}

// TestFirstRendezvousFromStart: the start is rendezvous 0. Every player
// schedules each peer's first rendezvous with its own s-function over the
// start's tanks and no boxes — NextDelta for MSYNC and MSYNC2, so both
// sides of a pair pick the same tick — while BSYNC's EveryTick keeps tick 1
// and a game expecting a late joiner leaves the absent team unscheduled.
func TestFirstRendezvousFromStart(t *testing.T) {
	cfg := game.DefaultConfig(8, 1)
	start, err := game.StartOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := cfg.InteractionRadius()
	for _, proto := range []Protocol{BSYNC, MSYNC, MSYNC2} {
		net := transport.NewMemNetwork(cfg.Teams)
		first := make([][]int64, cfg.Teams)
		for team := range first {
			p, err := newPlayer(PlayerConfig{Game: cfg, Protocol: proto, Endpoint: net.Endpoint(team), AbsentPeers: []int{7}})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.setup(); err != nil {
				t.Fatal(err)
			}
			first[team] = make([]int64, cfg.Teams)
			for peer := range first[team] {
				first[team][peer], _ = p.rt.NextExchange(peer)
			}
		}
		net.Close()
		gaps := map[int64]int{}
		for a := 0; a < 7; a++ {
			for b := 0; b < 7; b++ {
				if a == b {
					continue
				}
				want := int64(1)
				if proto != BSYNC {
					want = game.NextDelta(h, start.Tanks[a], nil, start.Tanks[b], nil)
				}
				if first[a][b] != want || first[b][a] != want {
					t.Errorf("%v: teams %d and %d first meet at %d and %d, want %d", proto, a, b, first[a][b], first[b][a], want)
				}
				gaps[want]++
			}
			if first[a][7] != 0 {
				t.Errorf("%v: team %d scheduled the absent team 7 at %d", proto, a, first[a][7])
			}
		}
		if proto != BSYNC && len(gaps) == 1 && gaps[1] > 0 {
			t.Errorf("%v: every pair still meets at tick 1: %v", proto, gaps)
		}
	}
}

func TestRunPlayerValidation(t *testing.T) {
	net := transport.NewMemNetwork(2)
	defer net.Close()
	if _, err := RunPlayer(PlayerConfig{Game: game.DefaultConfig(2, 1), Protocol: BSYNC}); err == nil {
		t.Error("missing endpoint accepted")
	}
	if _, err := RunPlayer(PlayerConfig{Game: game.DefaultConfig(2, 1), Protocol: 99, Endpoint: net.Endpoint(0)}); err == nil {
		t.Error("unknown protocol accepted")
	}
	if _, err := RunPlayer(PlayerConfig{Game: game.DefaultConfig(3, 1), Protocol: BSYNC, Endpoint: net.Endpoint(0)}); err == nil {
		t.Error("team/endpoint mismatch accepted")
	}
}

func TestProtocolString(t *testing.T) {
	for _, p := range []Protocol{BSYNC, MSYNC, MSYNC2} {
		if p.String() == "" {
			t.Error("empty protocol name")
		}
	}
	if Protocol(9).String() == "" {
		t.Error("unknown protocol should render")
	}
}
