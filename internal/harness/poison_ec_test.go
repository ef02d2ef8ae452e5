package harness

import (
	"fmt"
	"strings"
	"testing"

	"sdso/internal/faultnet"
	"sdso/internal/game"
	"sdso/internal/transport"
)

// TestPoisonedRecycleECGames holds the lock node, EC's and LRC's, to the
// message rule (DESIGN.md §15) through whole games on the simulated
// cluster: every process's endpoint is wrapped, outermost, by the poison
// decorator, which scribbles over each message the node recycles. A node
// that read a message after recycling it, or a sender that kept a struct it
// gave away (a request held for its retransmission, a forwarded lock
// message), plays a different game. The runs cover the fault-free path
// under both policies, a crash and restart with its rejoin handshake
// (stalled lock traffic replayed, join traffic kept), the same with
// quorum-replicated lock state (deferred grants, reconstruction), and a
// checked run under drop/dup/delay faults with retransmissions. Each
// poisoned run must equal its unpoisoned twin and, where TestSimRunsPinned
// pins the run, the values it pins.
func TestPoisonedRecycleECGames(t *testing.T) {
	type wrapFunc = func(transport.Endpoint) transport.Endpoint
	small := game.DefaultConfig(6, 1)
	small.Seed, small.MaxTicks = 3, 60
	chaos := func(cfg ChaosConfig) func(wrapFunc) (simPin, error) {
		return func(wrap wrapFunc) (simPin, error) {
			cfg.wrap = wrap
			res, err := RunChaos(cfg)
			if err != nil {
				return simPin{}, err
			}
			if !res.Crashed || !res.Rejoined {
				return simPin{}, fmt.Errorf("crashed=%v rejoined=%v, want both", res.Crashed, res.Rejoined)
			}
			p := pinOf(res.Result)
			p.decided = digest(strings.Join(res.DecisionLogs, "\x00"))
			return p, nil
		}
	}
	plain := func(proto Protocol) func(wrapFunc) (simPin, error) {
		return func(wrap wrapFunc) (simPin, error) {
			res, err := Run(Config{Game: small, Protocol: proto, wrap: wrap})
			if err != nil {
				return simPin{}, err
			}
			return pinOf(res), nil
		}
	}
	quorum := rejoinConfig(EC, 13)
	quorum.QuorumF = 1
	for _, tc := range []struct {
		name string
		run  func(wrapFunc) (simPin, error)
		want *simPin // TestSimRunsPinned's value for the run; nil where it pins none
	}{
		{"run", plain(EC), &simPin{virtual: 2962750400, msgs: 2523, logical: 2523, bytes: 21194, stats: "5a67977e585429b1"}},
		{"LRC", plain(LRC), &simPin{virtual: 2988114800, msgs: 2538, logical: 2538, bytes: 265445, stats: "870dd50fc6579444"}},
		{"chaos+restart", chaos(rejoinConfig(EC, 13)), nil},
		{"chaos+restart+quorum1", chaos(quorum),
			&simPin{virtual: 2927498800, msgs: 4156, logical: 4156, bytes: 192919, stats: "3193089977907780", decided: "3b70ffc66f43aabb"}},
		{"checked+faults", func(wrap wrapFunc) (simPin, error) {
			rep, err := RunChecked(CheckedConfig{Protocol: EC, Seed: 7, Teams: 4, Ticks: 40, Faults: true, wrap: wrap})
			if err != nil {
				return simPin{}, err
			}
			return simPin{events: rep.Events, verdict: rep.String()}, nil
		}, &simPin{events: 4276, verdict: "ok (4276 events)"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			play := func(poison bool) (simPin, int64) {
				var eps []*faultnet.PoisonEndpoint
				pin, err := tc.run(func(ep transport.Endpoint) transport.Endpoint {
					p := faultnet.NewPoisonEndpoint(ep, poison)
					eps = append(eps, p)
					return p
				})
				if err != nil {
					t.Fatal(err)
				}
				var recycled int64
				for _, p := range eps {
					recycled += p.Recycled()
				}
				return pin, recycled
			}
			clean, _ := play(false)
			poisoned, recycled := play(true)
			if recycled == 0 {
				t.Fatal("no message was recycled: the poison never touched the run")
			}
			if poisoned != clean {
				t.Errorf("poisoning %d recycled messages changed the run:\n poisoned %#v\n clean    %#v", recycled, poisoned, clean)
			}
			if tc.want != nil && clean != *tc.want {
				t.Errorf("got  %#v\nwant %#v (TestSimRunsPinned)", clean, *tc.want)
			}
		})
	}
}
