package lookahead

import (
	"fmt"
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

// TestTCPHorizonGameEndsQuietly plays games over loopback TCP, each node
// closing its endpoint as soon as it finishes, while its peers may still be
// playing. A Done is silent to every peer that will not wait on the node
// again (DESIGN.md §15), so the close reaches those peers without a DONE
// before it. That close must read as the departure it is: no eviction, with
// crash detection on, and no reconnect, with resumable links and
// heartbeats. Two boards: n = 4 for 12 ticks, which every team survives to
// the horizon (BSYNC and MSYNC2), and MSYNC2 on the n = 16 default board cut
// to 10 ticks (seeds 1–3), where most Dones come early and skip the peers
// whose next rendezvous lies past the horizon. Every team's stats equal the
// lockstep reference's.
func TestTCPHorizonGameEndsQuietly(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	type board struct {
		name    string
		cfg     game.Config
		proto   Protocol
		horizon bool // every team plays to MaxTicks
	}
	survive := game.DefaultConfig(4, 1)
	survive.MaxTicks = 12
	boards := []board{{"BSYNC/n4", survive, BSYNC, true}, {"MSYNC2/n4", survive, MSYNC2, true}}
	for seed := int64(1); seed <= 3; seed++ {
		short := game.DefaultConfig(16, 1)
		short.Seed, short.MaxTicks = seed, 10
		boards = append(boards, board{fmt.Sprintf("MSYNC2/n16/seed%d", seed), short, MSYNC2, false})
	}
	for _, b := range boards {
		teams := b.cfg.Teams
		ref, err := game.RunReference(b.cfg)
		if err != nil {
			t.Fatal(err)
		}
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
						Game: b.cfg, Protocol: b.proto, Endpoint: ep, Metrics: mcs[i],
						RendezvousTimeout: 200 * time.Millisecond,
					})
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("%s resumable=%v node %d: %v", b.name, resumable, i, err)
				}
			}
			ev, rc := 0, 0
			for i, mc := range mcs {
				s := mc.Snapshot()
				ev, rc = ev+s.Evictions, rc+s.Reconnects
				st := stats[i]
				if b.horizon && (st.DoneTick != int64(b.cfg.MaxTicks) || st.Destroyed || st.ReachedGoal) {
					t.Errorf("%s resumable=%v team %d did not play to the horizon: %+v", b.name, resumable, i, st)
				}
				if st != ref.Stats[i] {
					t.Errorf("%s resumable=%v team %d: %+v, reference %+v", b.name, resumable, i, st, ref.Stats[i])
				}
			}
			if ev != 0 || rc != 0 {
				t.Errorf("%s resumable=%v: %d evictions, %d reconnects, want none", b.name, resumable, ev, rc)
			}
		}
	}
}
