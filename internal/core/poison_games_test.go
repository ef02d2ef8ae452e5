package core_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sdso/internal/faultnet"
	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/netmodel"
	"sdso/internal/protocol/lookahead"
	"sdso/internal/transport"
	"sdso/internal/vtime"
)

// The message rule (DESIGN.md §15) through whole games: every endpoint
// scribbles over each message its runtime recycles, so a runtime that keeps
// anything of a message it sent or recycled plays a different game — or,
// under -race, is reported. Each cell of protocol × feature runs
//
//   - on the simulator, poisoned and unpoisoned: the simulator is
//     deterministic, so stats, message and byte counts, retransmissions and
//     the virtual duration must be identical;
//   - the same under a faultnet plan that duplicates and delays messages
//     (suspicion timeouts on, so the retransmit and echo paths run), fault
//     decisions included;
//   - over the mem transport under real goroutine concurrency, poisoned,
//     against game.RunReference.

// poisonFeatures are the shapes a frame can take on its way round: DATA
// with plain and delta payloads carrying the SYNC or — as a final flush —
// the DONE marker, bare markers, and the gated run whose withheld peers get
// grouped bare SYNCs from one shared frame. On this game every one
// reproduces the lockstep reference tick for tick, the gated run included:
// its gate only withholds what the s-function's rendezvous carry and never
// pulls, so no reply lands at an instant goroutine timing chose. (Larger
// gated games over mem can still end a player unlike the reference; the
// benchmark reports that share as lookahead.ref_mismatch_share.)
var poisonFeatures = []struct {
	name  string
	apply func(*lookahead.PlayerConfig)
}{
	{"plain", func(*lookahead.PlayerConfig) {}},
	{"delta", func(pc *lookahead.PlayerConfig) { pc.DeltaEncode = true }},
	{"interest+shards", func(pc *lookahead.PlayerConfig) { pc.DeltaEncode, pc.Interest, pc.Shards = true, true, 4 }},
}

func poisonGame() game.Config {
	cfg := game.DefaultConfig(8, 1)
	cfg.Seed = 3
	cfg.MaxTicks = 40
	return cfg
}

// gameOutcome is everything two runs of one deterministic game must agree on.
type gameOutcome struct {
	stats       []game.TeamStats
	msgs, bytes int
	ridingDones int // DONE markers that rode a final flush
	retransmits int
	virtual     time.Duration
	decisions   []string
}

func (a gameOutcome) diff(b gameOutcome) string {
	for i := range a.stats {
		if a.stats[i] != b.stats[i] {
			return fmt.Sprintf("team %d stats %+v vs %+v", i, a.stats[i], b.stats[i])
		}
	}
	if a.msgs != b.msgs || a.bytes != b.bytes || a.ridingDones != b.ridingDones || a.retransmits != b.retransmits || a.virtual != b.virtual {
		return fmt.Sprintf("msgs %d/%d bytes %d/%d riding DONEs %d/%d retransmits %d/%d virtual %v/%v",
			a.msgs, b.msgs, a.bytes, b.bytes, a.ridingDones, b.ridingDones, a.retransmits, b.retransmits, a.virtual, b.virtual)
	}
	for i := range a.decisions {
		if a.decisions[i] != b.decisions[i] {
			return fmt.Sprintf("endpoint %d fault decisions %q vs %q", i, a.decisions[i], b.decisions[i])
		}
	}
	return ""
}

// playSim runs one game on the simulated cluster, each endpoint wrapped
// sim → (faultnet, when faults is non-zero) → poison decorator.
func playSim(t *testing.T, proto lookahead.Protocol, apply func(*lookahead.PlayerConfig), faults faultnet.LinkFaults, poison bool) gameOutcome {
	t.Helper()
	cfg := poisonGame()
	n := cfg.Teams
	sim := vtime.NewSim(vtime.Config{Links: netmodel.NewCluster(netmodel.Ethernet10Mbps()), Horizon: 10 * time.Minute})
	plan := &faultnet.Plan{Seed: 11, Default: faults}
	faulty := faults != faultnet.LinkFaults{}
	eps := make([]transport.Endpoint, n)
	wrapped := make([]*faultnet.Endpoint, n)
	mcs := make([]*metrics.Collector, n)
	out := gameOutcome{stats: make([]game.TeamStats, n)}
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		mcs[i] = metrics.NewCollector()
		sim.Spawn(func(*vtime.Proc) {
			pc := lookahead.PlayerConfig{
				Game: cfg, Protocol: proto, Endpoint: eps[i], Metrics: mcs[i],
				ComputePerTick: 50 * time.Microsecond,
			}
			if faulty {
				pc.RendezvousTimeout, pc.MaxRetransmits = 5*time.Millisecond, 20
			}
			apply(&pc)
			out.stats[i], errs[i] = lookahead.RunPlayer(pc)
		})
	}
	for i := 0; i < n; i++ {
		var ep transport.Endpoint = transport.NewSimEndpoint(sim.Proc(i), n, transport.FixedSize(2048))
		if faulty {
			wrapped[i] = plan.Wrap(ep, mcs[i])
			ep = wrapped[i]
		}
		eps[i] = faultnet.NewPoisonEndpoint(ep, poison)
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("simulation: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("player %d: %v", i, err)
		}
		s := mcs[i].Snapshot()
		out.msgs += s.TotalMsgs()
		out.bytes += s.BytesSent
		out.ridingDones += s.PiggybackedDones
		out.retransmits += s.Retransmits
		out.virtual = max(out.virtual, s.ExecTime)
		if faulty {
			out.decisions = append(out.decisions, string(wrapped[i].DecisionLog()))
		}
	}
	return out
}

// playMem runs one poisoned game over the mem transport, one goroutine a
// player.
func playMem(t *testing.T, proto lookahead.Protocol, apply func(*lookahead.PlayerConfig)) []game.TeamStats {
	t.Helper()
	cfg := poisonGame()
	net := transport.NewMemNetwork(cfg.Teams)
	defer net.Close()
	stats := make([]game.TeamStats, cfg.Teams)
	errs := make([]error, cfg.Teams)
	var wg sync.WaitGroup
	for i := range stats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			pc := lookahead.PlayerConfig{
				Game: cfg, Protocol: proto, Metrics: metrics.NewCollector(),
				Endpoint: faultnet.NewPoisonEndpoint(net.Endpoint(i), true),
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
	return stats
}

func TestPoisonedRecycleWholeGames(t *testing.T) {
	ref, err := game.RunReference(poisonGame())
	if err != nil {
		t.Fatal(err)
	}
	dupDelay := faultnet.LinkFaults{DupProb: 0.05, DelayProb: 0.05, DelaySends: 2}
	for _, proto := range []lookahead.Protocol{lookahead.BSYNC, lookahead.MSYNC2} {
		for _, f := range poisonFeatures {
			t.Run(fmt.Sprintf("%v/%s", proto, f.name), func(t *testing.T) {
				clean := playSim(t, proto, f.apply, faultnet.LinkFaults{}, false)
				if d := clean.diff(playSim(t, proto, f.apply, faultnet.LinkFaults{}, true)); d != "" {
					t.Errorf("sim: poisoning recycled messages changed the run: %s", d)
				}
				if clean.ridingDones == 0 {
					t.Error("sim: no DONE rode a final flush; that frame shape was never recycled")
				}
				faulty := playSim(t, proto, f.apply, dupDelay, false)
				if faulty.retransmits == 0 {
					t.Error("sim+faultnet: the plan never forced a retransmission; the resend paths did not run")
				}
				if d := faulty.diff(playSim(t, proto, f.apply, dupDelay, true)); d != "" {
					t.Errorf("sim+faultnet: poisoning recycled messages changed the run: %s", d)
				}
				for i, st := range playMem(t, proto, f.apply) {
					if st != ref.Stats[i] {
						t.Errorf("mem: team %d stats %+v, reference %+v", i, st, ref.Stats[i])
					}
				}
				for i, st := range clean.stats {
					if st != ref.Stats[i] {
						t.Errorf("sim: team %d stats %+v, reference %+v", i, st, ref.Stats[i])
					}
				}
			})
		}
	}
}
