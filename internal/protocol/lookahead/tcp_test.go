package lookahead

import (
	"sync"
	"testing"
	"time"

	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/transport"
)

// TestGameOverRealTCP runs a complete distributed game over loopback TCP —
// the paper's actual deployment shape ("directly layered onto sockets") —
// and checks it reproduces the lockstep reference exactly.
func TestGameOverRealTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	const teams = 3
	cfg := game.DefaultConfig(teams, 1)
	cfg.MaxTicks = 80
	ref, err := game.RunReference(cfg)
	if err != nil {
		t.Fatal(err)
	}

	lns, addrs := listenLoopback(t, teams)

	stats := make([]game.TeamStats, teams)
	errs := make([]error, teams)
	var wg sync.WaitGroup
	for i := 0; i < teams; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep, err := transport.DialTCPConfig(i, addrs, transport.TCPConfig{Listener: lns[i]})
			if err != nil {
				errs[i] = err
				return
			}
			defer ep.Close()
			stats[i], errs[i] = RunPlayer(PlayerConfig{
				Game:     cfg,
				Protocol: MSYNC2,
				Endpoint: ep,
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for i, st := range stats {
		want := ref.Stats[i]
		if st.Mods != want.Mods || st.Ticks != want.Ticks || st.Score != want.Score ||
			st.ReachedGoal != want.ReachedGoal || st.Destroyed != want.Destroyed {
			t.Errorf("TCP team %d:\n got %+v\nwant %+v", i, st, want)
		}
	}
}

// TestTCPHorizonGameEndsQuietly plays games that every team survives to
// MaxTicks over loopback TCP, each node closing its endpoint as soon as it
// finishes. Every Done there is silent (DESIGN.md §15): a node's close
// reaches its peers without a DONE before it, while they may still be
// finishing their last tick. That close must read as the departure it is:
// no eviction, with crash detection on, and no reconnect, with resumable
// links and heartbeats.
func TestTCPHorizonGameEndsQuietly(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	const teams = 4
	cfg := game.DefaultConfig(teams, 1)
	cfg.MaxTicks = 12
	for _, proto := range []Protocol{BSYNC, MSYNC2} {
		for _, resumable := range []bool{false, true} {
			lns, addrs := listenLoopback(t, teams)
			stats := make([]game.TeamStats, teams)
			errs := make([]error, teams)
			mcs := make([]*metrics.Collector, teams)
			var wg sync.WaitGroup
			for i := 0; i < teams; i++ {
				mcs[i] = metrics.NewCollector()
				wg.Add(1)
				go func() {
					defer wg.Done()
					tc := transport.TCPConfig{Listener: lns[i], Metrics: mcs[i]}
					if resumable {
						tc = resilientTCPConfig(i, 1, 2*time.Second, lns[i], mcs[i])
					}
					ep, err := transport.DialTCPConfig(i, addrs, tc)
					if err != nil {
						errs[i] = err
						return
					}
					defer ep.Close()
					stats[i], errs[i] = RunPlayer(PlayerConfig{
						Game: cfg, Protocol: proto, Endpoint: ep, Metrics: mcs[i],
						RendezvousTimeout: 200 * time.Millisecond,
					})
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("%v resumable=%v node %d: %v", proto, resumable, i, err)
				}
			}
			ev, rc := 0, 0
			for i, mc := range mcs {
				s := mc.Snapshot()
				ev, rc = ev+s.Evictions, rc+s.Reconnects
				if st := stats[i]; st.DoneTick != int64(cfg.MaxTicks) || st.Destroyed || st.ReachedGoal {
					t.Errorf("%v resumable=%v team %d did not play to the horizon: %+v", proto, resumable, i, st)
				}
			}
			if ev != 0 || rc != 0 {
				t.Errorf("%v resumable=%v: %d evictions, %d reconnects, want none", proto, resumable, ev, rc)
			}
		}
	}
}
