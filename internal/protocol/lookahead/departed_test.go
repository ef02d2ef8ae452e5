package lookahead

import (
	"sync"
	"testing"
	"time"

	"sdso/internal/game"
	"sdso/internal/netmodel"
	"sdso/internal/trace"
	"sdso/internal/transport"
	"sdso/internal/vtime"
)

// TestDepartureMarkIsExact: on a loss-free link plain BSYNC's replica holds
// every write of the last rendezvous, so the peers a player marks departed
// at tick t (trace.OpDeparted) are exactly peers whose own Begin(t) ended
// their game: each called Done with its clock at t-1 and ends at DoneTick
// t-1, which a team that wins in tick t's turn does not. Over the games the
// lockstep reference pins (the harness's referenceGames), on the simulated
// cluster and over mem; marks must occur.
func TestDepartureMarkIsExact(t *testing.T) {
	var games []game.Config
	for seed := int64(1); seed <= 3; seed++ {
		g := game.DefaultConfig(8, 1)
		g.Seed, g.MaxTicks = seed, 150
		games = append(games, g)
	}
	last := game.DefaultConfig(16, 1)
	last.Seed, last.MaxTicks = 1, 5
	games = append(games, last)
	for _, net := range []string{"sim", "mem"} {
		marks := 0
		for _, g := range games {
			recs, stats := playTraced(t, g, net)
			for id, rec := range recs {
				for _, ev := range rec.Events() {
					if ev.Op != trace.OpDeparted {
						continue
					}
					marks++
					peer := int(ev.Peer)
					if st := stats[peer]; st.DoneTick != ev.Time-1 || !doneAt(recs[peer], ev.Time-1) {
						t.Errorf("%s n=%d seed=%d: player %d marked %d departed at tick %d, but its game did not end there: %+v",
							net, g.Teams, g.Seed, id, peer, ev.Time, st)
					}
				}
			}
		}
		if marks == 0 {
			t.Errorf("%s: no player marked a peer departed", net)
		}
		t.Logf("%s: %d marks", net, marks)
	}
}

// doneAt reports whether rec shows Done called with the clock at tick.
func doneAt(rec *trace.Recorder, tick int64) bool {
	for _, ev := range rec.Events() {
		if ev.Op == trace.OpDone {
			return ev.Time == tick
		}
	}
	return false
}

// playTraced plays g under plain BSYNC over net ("sim" or "mem") with every
// player traced, and returns the traces and the stats.
func playTraced(t *testing.T, g game.Config, net string) ([]*trace.Recorder, []game.TeamStats) {
	t.Helper()
	n := g.Teams
	recs, stats, errs := make([]*trace.Recorder, n), make([]game.TeamStats, n), make([]error, n)
	eps := make([]transport.Endpoint, n)
	play := func(i int) {
		recs[i] = trace.NewRecorder(i)
		stats[i], errs[i] = RunPlayer(PlayerConfig{Game: g, Protocol: BSYNC, Endpoint: eps[i], Trace: recs[i]})
	}
	if net == "sim" {
		sim := vtime.NewSim(vtime.Config{Links: netmodel.NewCluster(netmodel.Ethernet10Mbps()), Horizon: 10 * time.Minute})
		for i := range eps {
			sim.Spawn(func(*vtime.Proc) { play(i) })
		}
		for i := range eps {
			eps[i] = transport.NewSimEndpoint(sim.Proc(i), n, transport.FixedSize(2048))
		}
		if err := sim.Run(); err != nil {
			t.Fatalf("simulation: %v", err)
		}
	} else {
		mn := transport.NewMemNetwork(n)
		defer mn.Close()
		var wg sync.WaitGroup
		for i := range eps {
			eps[i] = mn.Endpoint(i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				play(i)
			}()
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s seed=%d player %d: %v", net, g.Seed, i, err)
		}
	}
	return recs, stats
}
