package lookahead

import (
	"sync"
	"testing"
	"time"

	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/netmodel"
	"sdso/internal/trace"
	"sdso/internal/transport"
	"sdso/internal/vtime"
)

// TestDepartureMarkIsExact: on a loss-free link a player marks a peer
// departed at tick t (trace.OpDeparted) for one of two reasons, and each is
// judged on its own (DESIGN.md §15). A replica mark is made only when the
// peer's own Begin(t) ended its game: the peer called Done with its clock
// at t-1 and ends at DoneTick t-1, which a team that wins in tick t's turn
// does not. Plain BSYNC's replica holds every write of the last rendezvous;
// MSYNC and MSYNC2 mark only on a beacon of the rendezvous just completed
// that carries no box, so the peer withheld nothing. A schedule mark is made
// as the marker finishes, on a peer whose next rendezvous with it (the
// event's aux value) lies past MaxTicks: the peer must never await the
// marker again — its own schedule names the same tick, it has no later
// rendezvous with the marker, and no player suspects or evicts anyone
// (playTraced). The marks at the horizon (tick MaxTicks+1) need only the
// peer to have ended by MaxTicks. BSYNC plays the games the lockstep
// reference pins (the harness's referenceGames); MSYNC and MSYNC2, plain,
// with interest and with interest and shards, play the harness's n = 16
// InterestWorld board (the default one, 60 ticks) at three seeds, and the
// short game every team survives to its horizon. On the simulated cluster
// and over mem; each variant must make replica marks before the horizon,
// and the MSYNC variants schedule marks too.
func TestDepartureMarkIsExact(t *testing.T) {
	var reference []game.Config
	for seed := int64(1); seed <= 3; seed++ {
		g := game.DefaultConfig(8, 1)
		g.Seed, g.MaxTicks = seed, 150
		reference = append(reference, g)
	}
	last := game.DefaultConfig(16, 1)
	last.Seed, last.MaxTicks = 1, 5
	reference = append(reference, last)
	var boards []game.Config
	for seed := int64(1); seed <= 3; seed++ {
		g := game.DefaultConfig(16, 1)
		g.Seed, g.MaxTicks = seed, 60
		boards = append(boards, g)
	}
	boards = append(boards, last)
	type variant struct {
		name  string
		games []game.Config
		apply func(*PlayerConfig)
	}
	variants := []variant{{"BSYNC", reference, func(pc *PlayerConfig) { pc.Protocol = BSYNC }}}
	for _, proto := range []Protocol{MSYNC, MSYNC2} {
		variants = append(variants,
			variant{proto.String(), boards, func(pc *PlayerConfig) { pc.Protocol = proto }},
			variant{proto.String() + "+interest", boards, func(pc *PlayerConfig) { pc.Protocol, pc.Interest = proto, true }},
			variant{proto.String() + "+interest+shards", boards, func(pc *PlayerConfig) { pc.Protocol, pc.Interest, pc.Shards = proto, true, 16 }})
	}
	for _, v := range variants {
		for _, net := range []string{"sim", "mem"} {
			judged, scheduled, horizon := 0, 0, 0
			for _, g := range v.games {
				recs, stats := playTraced(t, g, net, v.apply)
				maxTicks := int64(g.MaxTicks)
				for id, rec := range recs {
					final, _ := doneClock(rec)
					for _, ev := range rec.Events() {
						if ev.Op != trace.OpDeparted {
							continue
						}
						peer := int(ev.Peer)
						end, ended := doneClock(recs[peer])
						switch {
						case ev.Time > maxTicks:
							horizon++
							if !ended || end > maxTicks {
								t.Errorf("%s %s n=%d seed=%d: player %d marked %d departed at the horizon, but it never ended", v.name, net, g.Teams, g.Seed, id, peer)
							}
						case ev.Aux > maxTicks && ev.Time == final+1:
							scheduled++
							if next, met := nextWith(recs[peer], id, final); next != ev.Aux || met {
								t.Errorf("%s %s n=%d seed=%d: player %d, finishing at tick %d, marked %d unmet until tick %d, but %d's schedule names tick %d, rendezvous after the finish %v",
									v.name, net, g.Teams, g.Seed, id, final, peer, ev.Aux, peer, next, met)
							}
						default:
							judged++
							if st := stats[peer]; st.DoneTick != ev.Time-1 || !ended || end != ev.Time-1 {
								t.Errorf("%s %s n=%d seed=%d: player %d marked %d departed at tick %d, but its game did not end there: %+v",
									v.name, net, g.Teams, g.Seed, id, peer, ev.Time, st)
							}
						}
					}
				}
			}
			if judged == 0 || v.name != "BSYNC" && scheduled == 0 {
				t.Errorf("%s %s: %d replica marks and %d schedule marks before the horizon: a kind never occurred", v.name, net, judged, scheduled)
			}
			t.Logf("%s %s: %d replica marks and %d schedule marks before the horizon, %d at it", v.name, net, judged, scheduled, horizon)
		}
	}
}

// nextWith returns the tick rec's process last scheduled its rendezvous with
// peer for, and whether it had one with peer after tick.
func nextWith(rec *trace.Recorder, peer int, tick int64) (next int64, met bool) {
	for _, ev := range rec.Events() {
		if int(ev.Peer) != peer || ev.Op != trace.OpSched && ev.Op != trace.OpRendezvous {
			continue
		}
		next = ev.Aux
		met = met || ev.Op == trace.OpRendezvous && ev.Time > tick
	}
	return next, met
}

// doneClock returns the clock rec shows Done called with, if it was.
func doneClock(rec *trace.Recorder) (int64, bool) {
	for _, ev := range rec.Events() {
		if ev.Op == trace.OpDone {
			return ev.Time, true
		}
	}
	return 0, false
}

// playTraced plays g over net ("sim" or "mem") with every player traced,
// configured by apply, and returns the traces and the stats. It fails the
// test if any player suspected or evicted a peer.
func playTraced(t *testing.T, g game.Config, net string, apply func(*PlayerConfig)) ([]*trace.Recorder, []game.TeamStats) {
	t.Helper()
	n := g.Teams
	recs, stats, errs := make([]*trace.Recorder, n), make([]game.TeamStats, n), make([]error, n)
	mcs := make([]*metrics.Collector, n)
	eps := make([]transport.Endpoint, n)
	play := func(i int) {
		recs[i], mcs[i] = trace.NewRecorder(i), metrics.NewCollector()
		// A timeout no loss-free game reaches: a wrong mark a Done honours
		// leaves its peer waiting on a finished process, and the detector
		// ends that wait — in virtual time under sim, after 3 s over mem —
		// so the test names the two instead of hanging.
		pc := PlayerConfig{Game: g, Endpoint: eps[i], Trace: recs[i], Metrics: mcs[i], RendezvousTimeout: time.Second, MaxRetransmits: 1}
		apply(&pc)
		stats[i], errs[i] = RunPlayer(pc)
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
		// Each wrong mark costs its peer a 3 s wait over mem; a game that
		// outlives 10 s has its network closed, failing every open wait.
		defer time.AfterFunc(10*time.Second, mn.Close).Stop()
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
	for i, rec := range recs {
		for _, ev := range rec.Events() {
			if ev.Op == trace.OpEvict {
				t.Fatalf("%s n=%d seed=%d: player %d waited at tick %d on peer %d, which never answered, and evicted it", net, g.Teams, g.Seed, i, ev.Time, ev.Peer)
			}
		}
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s seed=%d player %d: %v", net, g.Seed, i, err)
		}
		if s := mcs[i].Snapshot(); s.Suspects != 0 {
			t.Errorf("%s seed=%d player %d: %d suspicions on a loss-free run", net, g.Seed, i, s.Suspects)
		}
	}
	return recs, stats
}
