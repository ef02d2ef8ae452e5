package core_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"sdso/internal/faultnet"
	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/netmodel"
	"sdso/internal/protocol/lookahead"
	"sdso/internal/trace"
	"sdso/internal/transport"
	"sdso/internal/vtime"
	"sdso/internal/wire"
)

// The frame rule (DESIGN.md §15) through whole games: a call sends each
// live target exactly one frame, and none to a target marked departed, which
// gets one late frame if the mark was wrong. Every endpoint is wrapped in a
// decorator that notes each frame its runtime sends, and every runtime
// records its trace; replaying the trace's schedule gives the rendezvous set
// of each Exchange and the live peers of the Done independently of what was
// sent, and the frames must match them one for one.

// sentFrame is one SYNC, DATA or DONE frame as it left a runtime.
type sentFrame struct {
	dst     int
	kind    wire.Kind
	mode    uint8
	stamp   int64
	payload int
}

// done reports whether the frame carries the sender's DONE, bare or riding.
func (f sentFrame) done() bool {
	return f.kind == wire.KindDone || f.kind == wire.KindData && f.mode&wire.ModeDonePiggyback != 0
}

// bareSync reports a SYNC frame of its own: what a retransmission or an
// echo is, and what an Exchange sends a peer no data flows to.
func (f sentFrame) bareSync() bool { return f.kind == wire.KindSync && f.payload == 0 }

// observedPlayer is what one player of an observed game leaves behind.
type observedPlayer struct {
	frames []sentFrame
	rec    *trace.Recorder
	mc     *metrics.Collector
	stats  game.TeamStats
	err    error
}

// observe wraps ep so that p notes every exchange-traffic frame sent.
func (p *observedPlayer) observe(ep transport.Endpoint) transport.Endpoint {
	return faultnet.NewObservedEndpoint(ep, func(to int, m *wire.Msg) {
		switch m.Kind {
		case wire.KindSync, wire.KindData, wire.KindDone:
			p.frames = append(p.frames, sentFrame{to, m.Kind, m.Mode, m.Stamp, len(m.Payload)})
		}
	})
}

var frameRuleFeatures = []struct {
	name  string
	game  game.Config
	apply func(*lookahead.PlayerConfig)
	// exact: the run reproduces the lockstep reference tick for tick.
	// Batched BSYNC trades that for fewer rendezvous. The gated run is
	// exact on this game: its gate only withholds and never pulls, so no
	// reply lands at an instant goroutine timing chose.
	exact bool
}{
	{"plain", poisonGame(), func(*lookahead.PlayerConfig) {}, true},
	{"delta", poisonGame(), func(pc *lookahead.PlayerConfig) { pc.DeltaEncode = true }, true},
	{"interest+shards", poisonGame(), func(pc *lookahead.PlayerConfig) { pc.DeltaEncode, pc.Interest, pc.Shards = true, true, 4 }, true},
	{"batch3", poisonGame(), func(pc *lookahead.PlayerConfig) { pc.DeltaEncode, pc.MaxBatchTicks = true, 3 }, false},
	// Team 2 is destroyed at tick 26, so under BSYNC its Done finds every
	// live peer due at tick 27, the last tick: due, and so owed its DONE.
	{"horizon-after-a-death", horizonGame(), func(*lookahead.PlayerConfig) {}, true},
}

// horizonGame is poisonGame cut to end one tick after team 2's death.
func horizonGame() game.Config {
	g := poisonGame()
	g.MaxTicks = 27
	return g
}

// boundedWait is the failure detection of a loss-free observed game: a
// silence no such game reaches (virtual under sim, where it costs nothing;
// wall-clock over mem, 3 s before an eviction). A wrong departure mark
// leaves a peer waiting on a finished process; the detector ends that wait
// and stuckWaits names both, so the test fails instead of hanging. Over
// mem, where each such wait costs 3 s, memGameBound caps the whole game.
func boundedWait() (time.Duration, int) { return time.Second, 1 }

// memGameBound is how long a mem game may run before its network is
// closed, failing every wait still open; a loss-free game takes well under
// a second.
const memGameBound = 10 * time.Second

// stuckWaits fails the test for every eviction in a loss-free game: the
// evicting process waited on a peer that never answered.
func stuckWaits(t *testing.T, where string, players []*observedPlayer) {
	t.Helper()
	for i, p := range players {
		for _, ev := range p.rec.Events() {
			if ev.Op == trace.OpEvict {
				t.Fatalf("%s: player %d waited at tick %d on peer %d, which never answered, and evicted it", where, i, ev.Time, ev.Peer)
			}
		}
	}
}

// observeSim plays cfg on the simulated cluster, under the drop plan when
// drops is set (suspicion timeouts on, so the resend paths run).
func observeSim(t *testing.T, cfg game.Config, proto lookahead.Protocol, apply func(*lookahead.PlayerConfig), drops bool) []*observedPlayer {
	t.Helper()
	n := cfg.Teams
	sim := vtime.NewSim(vtime.Config{Links: netmodel.NewCluster(netmodel.Ethernet10Mbps()), Horizon: 10 * time.Minute})
	plan := &faultnet.Plan{Seed: 11, Default: faultnet.LinkFaults{DropProb: 0.03}}
	players := make([]*observedPlayer, n)
	eps := make([]transport.Endpoint, n)
	for i := 0; i < n; i++ {
		i := i
		players[i] = &observedPlayer{rec: trace.NewRecorder(i), mc: metrics.NewCollector()}
		sim.Spawn(func(*vtime.Proc) {
			pc := lookahead.PlayerConfig{
				Game: cfg, Protocol: proto, Endpoint: eps[i], Metrics: players[i].mc,
				Trace: players[i].rec, ComputePerTick: 50 * time.Microsecond,
			}
			if drops {
				pc.RendezvousTimeout, pc.MaxRetransmits = 5*time.Millisecond, 20
			} else {
				pc.RendezvousTimeout, pc.MaxRetransmits = boundedWait()
			}
			apply(&pc)
			players[i].stats, players[i].err = lookahead.RunPlayer(pc)
		})
	}
	for i := 0; i < n; i++ {
		var ep transport.Endpoint = transport.NewSimEndpoint(sim.Proc(i), n, transport.FixedSize(2048))
		if drops {
			ep = plan.Wrap(ep, nil)
		}
		eps[i] = players[i].observe(ep)
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("simulation: %v", err)
	}
	return players
}

// observeMem plays cfg over the mem transport, one goroutine a player.
func observeMem(t *testing.T, cfg game.Config, proto lookahead.Protocol, apply func(*lookahead.PlayerConfig)) []*observedPlayer {
	t.Helper()
	net := transport.NewMemNetwork(cfg.Teams)
	defer net.Close()
	defer time.AfterFunc(memGameBound, net.Close).Stop()
	players := make([]*observedPlayer, cfg.Teams)
	var wg sync.WaitGroup
	for i := range players {
		players[i] = &observedPlayer{rec: trace.NewRecorder(i), mc: metrics.NewCollector()}
		wg.Add(1)
		go func(p *observedPlayer, ep transport.Endpoint) {
			defer wg.Done()
			pc := lookahead.PlayerConfig{
				Game: cfg, Protocol: proto, Endpoint: p.observe(ep), Metrics: p.mc, Trace: p.rec,
			}
			pc.RendezvousTimeout, pc.MaxRetransmits = boundedWait()
			apply(&pc)
			p.stats, p.err = lookahead.RunPlayer(pc)
		}(players[i], net.Endpoint(i))
	}
	wg.Wait()
	return players
}

// checkFrameRule holds player id's frames against its trace. Replaying
// the trace's schedule events yields, per Exchange, the peers due and not
// gone when the tick began — the call's targets — and at Done the peers
// still live. Each must have been sent exactly one frame by that call; with
// resends allowed (a lossy run with timeouts) anything further to the same
// peer at the same stamp must be a bare SYNC, sent after the original. A
// mark (trace.OpDeparted) stands until the next call that targets the
// peer. A target with a standing mark must have been sent nothing if its
// own trace shows its game ended by the tick the mark was for. A Done's
// target marked with its next rendezvous past maxTicks (the event's aux
// value) is unmet: it will never wait on the player, and is sent nothing.
// Any other mark was wrong, and an Exchange owes the target its one frame
// while Done owes it nothing, as no one waits on a finished process. It
// returns the marks, how many of them were unmet, and how many were wrong.
func checkFrameRule(t *testing.T, id int, players []*observedPlayer, resends bool, maxTicks int64) (marks, unmet, wrong int) {
	t.Helper()
	type call struct {
		stamp int64
		done  bool
	}
	n, p := len(players), players[id]
	want, marked := make(map[call][]int), make(map[call]map[int]trace.Event)
	sched, scheduled, gone := make([]int64, n), make([]bool, n), make([]bool, n)
	standing := make([]trace.Event, n) // a standing mark, zero for none
	for _, ev := range p.rec.Events() {
		switch ev.Op {
		case trace.OpDeparted:
			standing[ev.Peer] = ev
		case trace.OpSched, trace.OpRendezvous:
			sched[ev.Peer], scheduled[ev.Peer] = ev.Aux, true
		case trace.OpPeerDone, trace.OpEvict:
			gone[ev.Peer] = true
		case trace.OpTick, trace.OpDone:
			c := call{stamp: ev.Time, done: ev.Op == trace.OpDone}
			want[c], marked[c] = []int{}, make(map[int]trace.Event) // a call with no targets sends nothing
			for peer := 0; peer < n; peer++ {
				if peer != id && !gone[peer] && (c.done || scheduled[peer] && sched[peer] <= ev.Time) {
					want[c] = append(want[c], peer)
					if standing[peer].Time != 0 {
						marked[c][peer], standing[peer] = standing[peer], trace.Event{}
					}
				}
			}
		}
	}
	got := make(map[call]map[int][]sentFrame)
	for _, f := range p.frames {
		c := call{stamp: f.stamp, done: f.done()}
		if c.done && f.kind == wire.KindData {
			c.stamp-- // the final flush is stamped one past the DONE it carries
		}
		if got[c] == nil {
			got[c] = make(map[int][]sentFrame)
		}
		got[c][f.dst] = append(got[c][f.dst], f)
	}
	for c, byDst := range got {
		targets, ok := want[c]
		for dst, frames := range byDst {
			switch {
			case !ok || !slices.Contains(targets, dst):
				t.Errorf("player %d sent peer %d %+v, but the call (stamp %d, done %v) had targets %v", id, dst, frames, c.stamp, c.done, targets)
			case len(frames) > 1 && !resends:
				t.Errorf("player %d sent peer %d %d frames in one call: %+v", id, dst, len(frames), frames)
			}
			for _, f := range frames[1:] {
				if !f.bareSync() {
					t.Errorf("player %d: extra frame to peer %d at stamp %d is %+v, not a bare SYNC", id, dst, c.stamp, f)
				}
			}
		}
	}
	for c, targets := range want {
		for _, dst := range targets {
			frames := got[c][dst]
			mark, ok := marked[c][dst]
			if !ok {
				if len(frames) == 0 {
					t.Errorf("player %d sent target %d nothing in the call (stamp %d, done %v)", id, dst, c.stamp, c.done)
				}
				continue
			}
			marks++
			markedFor := mark.Time
			// The peer's Begin(markedFor) ran at its clock markedFor-1.
			// Under loss its DONE can be lost: the wait's first silence then
			// sends the owed frame, as it would to a peer that wrongly
			// marked this one.
			if endedBy(players[dst], markedFor-1) {
				if len(frames) != 0 && !resends {
					t.Errorf("player %d sent target %d, which ended by tick %d as marked, %+v", id, dst, markedFor, frames)
				}
				continue
			}
			if c.done && mark.Aux > maxTicks {
				unmet++
				if len(frames) != 0 {
					t.Errorf("player %d's Done sent target %d, unmet until tick %d, %+v", id, dst, mark.Aux, frames)
				}
				continue
			}
			// A wrong mark: in an Exchange one frame, late unless the peer's
			// SYNC was in hand, and under loss, like any target's, the bare
			// SYNCs that answer the peer's retransmits.
			wrong++
			if len(frames) == 0 && !c.done {
				t.Errorf("player %d marked target %d departed for tick %d, wrongly, and sent it nothing at stamp %d", id, dst, markedFor, c.stamp)
			}
			if len(frames) != 0 && c.done {
				t.Errorf("player %d's Done sent target %d, marked for tick %d, %+v", id, dst, markedFor, frames)
			}
		}
	}
	return marks, unmet, wrong
}

// endedBy reports whether p called Done with its clock at tick or before.
func endedBy(p *observedPlayer, tick int64) bool {
	return slices.ContainsFunc(p.rec.Events(), func(ev trace.Event) bool { return ev.Op == trace.OpDone && ev.Time <= tick })
}

func TestOneFramePerPeerPerCall(t *testing.T) {
	check := func(t *testing.T, where string, g game.Config, players []*observedPlayer, resends, exact bool) {
		t.Helper()
		ref, err := game.RunReference(g)
		if err != nil {
			t.Fatal(err)
		}
		ridingSync, ridingDone, bareDone, marks, unmet, wrong := 0, 0, 0, 0, 0, 0
		if !resends {
			stuckWaits(t, where, players)
		}
		for i, p := range players {
			if p.err != nil {
				t.Fatalf("%s: player %d: %v", where, i, p.err)
			}
			m, u, w := checkFrameRule(t, i, players, resends, int64(g.MaxTicks))
			marks, unmet, wrong = marks+m, unmet+u, wrong+w
			if exact && p.stats != ref.Stats[i] {
				t.Errorf("%s: team %d stats %+v, reference %+v", where, i, p.stats, ref.Stats[i])
			}
			for _, f := range p.frames {
				switch {
				case f.kind == wire.KindDone:
					bareDone++
				case f.done():
					ridingDone++
				case f.kind == wire.KindData && f.mode&wire.ModeSyncPiggyback != 0:
					ridingSync++
				}
			}
		}
		if ridingSync == 0 || ridingDone == 0 || bareDone == 0 {
			t.Errorf("%s: %d riding SYNCs, %d riding DONEs, %d bare DONEs: a frame form never occurred", where, ridingSync, ridingDone, bareDone)
		}
		t.Logf("%s: %d targets marked departed, %d of them unmet, %d wrongly", where, marks, unmet, wrong)
		if wrong > 0 && !resends {
			t.Errorf("%s: %d wrong departure marks on a loss-free run", where, wrong)
		}
	}
	for _, proto := range []lookahead.Protocol{lookahead.BSYNC, lookahead.MSYNC, lookahead.MSYNC2} {
		for _, f := range frameRuleFeatures {
			ok := t.Run(fmt.Sprintf("%v/%s", proto, f.name), func(t *testing.T) {
				check(t, "sim", f.game, observeSim(t, f.game, proto, f.apply, false), false, f.exact)
				check(t, "mem", f.game, observeMem(t, f.game, proto, f.apply), false, f.exact)
				check(t, "sim+drops", f.game, observeSim(t, f.game, proto, f.apply, true), true, false)
			})
			if !ok {
				return // a wrong mark stalls every later cell too, each up to memGameBound
			}
		}
	}
}
