package core_test

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"sdso/internal/core"
	"sdso/internal/faultnet"
	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/protocol/lookahead"
	"sdso/internal/trace"
	"sdso/internal/transport"
	"sdso/internal/vtime"
	"sdso/internal/wire"
)

// TestDepartedPeerIsSentNothing: process 0 writes, marks peer 1 departed
// and exchanges. Marked rightly, the peer calls Done: it is sent no frame
// and its DONE completes the rendezvous with no retransmission. Marked
// wrongly, it exchanges too: its SYNC draws exactly one frame, late, which
// carries the write buffered for it, with no suspicion, retransmission or
// eviction on either side. On mem and on the simulated cluster.
func TestDepartedPeerIsSentNothing(t *testing.T) {
	for _, net := range []string{"mem", "sim"} {
		for _, wrong := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/wrong=%v", net, wrong), func(t *testing.T) {
				var frames []wire.Msg // what 0 sent peer 1, headers only
				var mu sync.Mutex
				mcs := []*metrics.Collector{metrics.NewCollector(), metrics.NewCollector()}
				var seen uint64
				bodies := []func(ep transport.Endpoint) error{
					func(ep transport.Endpoint) error {
						ep = faultnet.NewObservedEndpoint(ep, func(to int, m *wire.Msg) {
							mu.Lock()
							defer mu.Unlock()
							frames = append(frames, wire.Msg{Kind: m.Kind, Mode: m.Mode, Stamp: m.Stamp})
						})
						r, err := departedRuntime(ep, mcs[0])
						if err != nil {
							return err
						}
						if err := r.Write(1, binary.BigEndian.AppendUint64(nil, 42)); err != nil {
							return err
						}
						r.Departed(1)
						if err := r.Exchange(core.ExchangeOpts{Resync: true, SFunc: core.EveryTick}); err != nil {
							return err
						}
						if !wrong && !r.PeerDone(1) {
							return fmt.Errorf("the rendezvous completed without peer 1's DONE")
						}
						return nil
					},
					func(ep transport.Endpoint) error {
						r, err := departedRuntime(ep, mcs[1])
						if err != nil {
							return err
						}
						if !wrong {
							return r.Done(false)
						}
						if err := r.Exchange(core.ExchangeOpts{Resync: true, SFunc: core.EveryTick}); err != nil {
							return err
						}
						state, err := r.Store().Get(1)
						if err != nil {
							return err
						}
						seen = binary.BigEndian.Uint64(state)
						return nil
					},
				}
				playGroup(t, net, bodies)
				want := 0
				if wrong {
					want = 1
				}
				if len(frames) != want {
					t.Fatalf("peer 1 was sent %d frames %+v, want %d", len(frames), frames, want)
				}
				if wrong {
					if f := frames[0]; f.Kind != wire.KindData || f.Mode&wire.ModeSyncPiggyback == 0 || f.Stamp != 1 {
						t.Errorf("the late frame is %+v, want DATA carrying the SYNC of tick 1", f)
					}
					if seen != 42 {
						t.Errorf("peer 1 reads %d after its rendezvous, want the buffered write 42", seen)
					}
				}
				for i, mc := range mcs {
					if s := mc.Snapshot(); s.Suspects != 0 || s.Retransmits != 0 || s.Evictions != 0 {
						t.Errorf("process %d: %d suspicions, %d retransmits, %d evictions, want none", i, s.Suspects, s.Retransmits, s.Evictions)
					}
				}
			})
		}
	}
}

// TestDoneSkipsDepartedPeer: Done sends a peer marked departed nothing and
// every other live peer its final frame (DESIGN.md §15). Process 0 writes,
// marks peer 1 and calls Done: peer 1, which ended too, gets nothing; peer
// 2, at its rendezvous, gets the write riding 0's DONE, and both DONEs
// settle its wait with no suspicion. Then whole games: every live peer ends
// at MaxTicks, so a player whose Done comes there sends nothing after its
// last Exchange, and a player destroyed at Begin(t) marks beforehand every
// peer destroyed there too. On mem and on the simulated cluster.
func TestDoneSkipsDepartedPeer(t *testing.T) {
	for _, net := range []string{"mem", "sim"} {
		t.Run(net+"/call", func(t *testing.T) {
			players := make([]*observedPlayer, 3)
			mcs := make([]*metrics.Collector, 3)
			var seen uint64
			bodies := make([]func(transport.Endpoint) error, 3)
			for i := range players {
				players[i], mcs[i] = &observedPlayer{}, metrics.NewCollector()
				bodies[i] = func(ep transport.Endpoint) error {
					r, err := departedRuntime(players[i].observe(ep), mcs[i])
					if err != nil {
						return err
					}
					switch i {
					case 0:
						if err := r.Write(1, binary.BigEndian.AppendUint64(nil, 42)); err != nil {
							return err
						}
						r.Departed(1)
						return r.Done(false)
					case 1:
						return r.Done(false)
					}
					if err := r.Exchange(core.ExchangeOpts{Resync: true, SFunc: core.EveryTick}); err != nil {
						return err
					}
					if !r.PeerDone(0) || !r.PeerDone(1) {
						return fmt.Errorf("the rendezvous completed without both DONEs")
					}
					state, err := r.Store().Get(1)
					if err != nil {
						return err
					}
					seen = binary.BigEndian.Uint64(state)
					return nil
				}
			}
			playGroup(t, net, bodies)
			if f := players[0].frames; len(f) != 1 || f[0].dst != 2 || f[0].kind != wire.KindData || f[0].mode&wire.ModeDonePiggyback == 0 || f[0].stamp != 1 {
				t.Errorf("process 0 sent %+v, want one frame, to peer 2: DATA stamped 1 carrying the DONE", f)
			}
			if f := players[1].frames; len(f) != 2 || !f[0].done() || !f[1].done() {
				t.Errorf("process 1, which marked no one, sent %+v, want a DONE to each peer", f)
			}
			if seen != 42 {
				t.Errorf("peer 2 reads %d after its rendezvous, want the write 42 that rode the DONE", seen)
			}
			for i, mc := range mcs {
				if s := mc.Snapshot(); s.Suspects != 0 || s.Retransmits != 0 || s.Evictions != 0 {
					t.Errorf("process %d: %d suspicions, %d retransmits, %d evictions, want none", i, s.Suspects, s.Retransmits, s.Evictions)
				}
			}
		})
	}
	// Whole games, loss-free: a player that ends at the horizon sends
	// nothing after its last Exchange, and under BSYNC, whose every beacon
	// is fresh and box-free, one destroyed at Begin(t) sends no DONE to a
	// peer destroyed there too, as both mark before Begin.
	cfg := game.DefaultConfig(8, 1)
	cfg.Seed, cfg.MaxTicks = 17, 25 // four teams survive; two are destroyed in one tick
	for _, proto := range []lookahead.Protocol{lookahead.BSYNC, lookahead.MSYNC, lookahead.MSYNC2} {
		t.Run(fmt.Sprintf("game/%v", proto), func(t *testing.T) {
			for _, net := range []string{"mem", "sim"} {
				var players []*observedPlayer
				if net == "mem" {
					players = observeMem(t, cfg, proto, func(*lookahead.PlayerConfig) {})
				} else {
					players = observeSim(t, cfg, proto, func(*lookahead.PlayerConfig) {}, false)
				}
				horizon, together := 0, 0
				for i, p := range players {
					if p.err != nil {
						t.Fatalf("%s: player %d: %v", net, i, p.err)
					}
					end := p.stats.DoneTick
					if end == int64(cfg.MaxTicks) && !endedBy(p, end-1) {
						horizon++
						for _, f := range p.frames {
							if f.done() || f.stamp > end {
								t.Errorf("%s: player %d ended at the horizon but sent peer %d %+v", net, i, f.dst, f)
							}
						}
						continue
					}
					if proto != lookahead.BSYNC || !p.stats.Destroyed {
						continue
					}
					for j, q := range players {
						if j == i || !q.stats.Destroyed || q.stats.DoneTick != end {
							continue
						}
						together++
						for _, f := range p.frames {
							if f.dst == j && f.done() {
								t.Errorf("%s: players %d and %d were destroyed together at tick %d, but %d sent %d %+v", net, i, j, end, i, j, f)
							}
						}
					}
				}
				if horizon == 0 || proto == lookahead.BSYNC && together == 0 {
					t.Errorf("%s: %d players reached the horizon, %d pairs were destroyed together: a case never occurred", net, horizon, together)
				}
				t.Logf("%s: %d of %d players reached the horizon, %d pairs were destroyed together", net, horizon, len(players), together)
			}
		})
	}
}

// TestDoneSkipsPeerPastHorizon: a finishing player sends nothing to a live
// peer whose next rendezvous with it lies past MaxTicks, and exactly one
// frame to every other live peer (DESIGN.md §15). MSYNC2 games on the n = 16
// default board cut to 10 ticks, seeds 1–3, on the simulated cluster and
// over mem, with boundedWait's 1 s rendezvous timeout: the frame rule holds with no
// wrong mark, the unmet peers never wait on the finished player (no
// suspicion, no eviction), and every team's stats equal the lockstep
// reference's. Then a race: the winner's DONE ends every live peer's game,
// so it reaches each, those past the horizon too.
func TestDoneSkipsPeerPastHorizon(t *testing.T) {
	observe := func(t *testing.T, net string, cfg game.Config) []*observedPlayer {
		t.Helper()
		var players []*observedPlayer
		if net == "mem" {
			players = observeMem(t, cfg, lookahead.MSYNC2, func(*lookahead.PlayerConfig) {})
		} else {
			players = observeSim(t, cfg, lookahead.MSYNC2, func(*lookahead.PlayerConfig) {}, false)
		}
		for i, p := range players {
			if p.err != nil {
				t.Fatalf("player %d: %v", i, p.err)
			}
			if s := p.mc.Snapshot(); s.Suspects != 0 || s.Evictions != 0 {
				t.Errorf("player %d: %d suspicions, %d evictions, want none", i, s.Suspects, s.Evictions)
			}
		}
		return players
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := game.DefaultConfig(16, 1)
		cfg.Seed, cfg.MaxTicks = seed, 10
		ref, err := game.RunReference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, net := range []string{"sim", "mem"} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, net), func(t *testing.T) {
				players := observe(t, net, cfg)
				unmet := 0
				for i, p := range players {
					_, u, wrong := checkFrameRule(t, i, players, false, int64(cfg.MaxTicks))
					unmet += u
					if wrong != 0 {
						t.Errorf("player %d made %d wrong marks", i, wrong)
					}
					if p.stats != ref.Stats[i] {
						t.Errorf("team %d stats %+v, reference %+v", i, p.stats, ref.Stats[i])
					}
				}
				if unmet == 0 {
					t.Error("no Done skipped a peer past the horizon")
				}
				t.Logf("%d peers skipped as unmet", unmet)
			})
		}
	}
	race := game.DefaultConfig(16, 1)
	race.Seed, race.MaxTicks, race.EndOnFirstGoal = 2, 20, true
	for _, net := range []string{"sim", "mem"} {
		t.Run("race/"+net, func(t *testing.T) {
			players := observe(t, net, race)
			winners, past := 0, 0
			for i, p := range players {
				checkFrameRule(t, i, players, false, int64(race.MaxTicks))
				final, won := int64(-1), false
				next := make(map[int]int64) // each live peer's next rendezvous
				for _, ev := range p.rec.Events() {
					switch ev.Op {
					case trace.OpSched, trace.OpRendezvous:
						next[int(ev.Peer)] = ev.Aux
					case trace.OpPeerDone, trace.OpEvict:
						delete(next, int(ev.Peer))
					case trace.OpDeparted:
						if endedBy(players[ev.Peer], ev.Time-1) {
							delete(next, int(ev.Peer)) // a mark the replica made
						}
					case trace.OpDone:
						final, won = ev.Time, ev.Aux == 1
					}
				}
				if !won {
					continue
				}
				winners++
				for peer, at := range next {
					if at > int64(race.MaxTicks) {
						past++
					}
					if !slices.ContainsFunc(p.frames, func(f sentFrame) bool { return f.dst == peer && f.done() }) {
						t.Errorf("winner %d, finishing at tick %d, sent live peer %d (next rendezvous %d) no DONE", i, final, peer, at)
					}
				}
			}
			if winners == 0 || past == 0 {
				t.Errorf("%d winners, %d live peers past the horizon: the case never occurred", winners, past)
			}
		})
	}
}

// departedRuntime is a runtime over ep sharing object 1, with a rendezvous
// timeout no healthy run of these tests reaches.
func departedRuntime(ep transport.Endpoint, mc *metrics.Collector) (*core.Runtime, error) {
	r, err := core.New(core.Config{Endpoint: ep, Metrics: mc, MergeDiffs: true, RendezvousTimeout: 2 * time.Second})
	if err != nil {
		return nil, err
	}
	return r, r.Share(1, make([]byte, 8))
}

// playGroup runs bodies[i] as process i of a group over mem (one goroutine
// each) or the simulated cluster, and fails the test on any body's error.
func playGroup(t *testing.T, net string, bodies []func(transport.Endpoint) error) {
	t.Helper()
	n := len(bodies)
	errs := make([]error, n)
	if net == "mem" {
		mn := transport.NewMemNetwork(n)
		defer mn.Close()
		var wg sync.WaitGroup
		for i, body := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = body(mn.Endpoint(i))
			}()
		}
		wg.Wait()
	} else {
		sim := vtime.NewSim(vtime.Config{Horizon: time.Minute})
		eps := make([]transport.Endpoint, n)
		for i, body := range bodies {
			sim.Spawn(func(*vtime.Proc) { errs[i] = body(eps[i]) })
		}
		for i := range eps {
			eps[i] = transport.NewSimEndpoint(sim.Proc(i), n, nil)
		}
		if err := sim.Run(); err != nil {
			t.Fatalf("simulation: %v", err)
		}
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", i, err)
		}
	}
}
