package harness

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"sdso/internal/game"
)

// simPin is what one deterministic simulated run measured: its virtual
// duration, frames and logical messages and a digest of the per-team stats;
// a chaos run adds a digest of its fault-decision logs, and a checked run
// pins the oracle's event count and verdict, the only numbers its report
// carries.
type simPin struct {
	virtual        time.Duration
	msgs, logical  int
	stats, decided string
	events         int
	verdict        string
}

func digest(s string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16]
}

func pinOf(res *Result) simPin {
	return simPin{virtual: res.VirtualDuration, msgs: res.Metrics.TotalMsgs(),
		logical: res.Metrics.LogicalMsgs(), stats: digest(fmt.Sprint(res.Stats))}
}

// TestSimRunsPinned pins one small run of every simulated-cluster runner —
// each protocol's plain run, a lookahead and an EC crash-and-restart chaos
// run, and a faulted checked run of each family — to the values they
// measured at the parent of the commit that gave them one cluster builder.
// Spawn order, process numbering and collector wiring all show up here: the
// virtual clock orders events by spawn and faultnet derives its decisions
// per link.
func TestSimRunsPinned(t *testing.T) {
	small := func(teams int) game.Config {
		g := game.DefaultConfig(teams, 1)
		g.Seed, g.MaxTicks = 3, 60
		return g
	}
	plain := func(cfg Config) func() (simPin, error) {
		return func() (simPin, error) {
			res, err := Run(cfg)
			if err != nil {
				return simPin{}, err
			}
			return pinOf(res), nil
		}
	}
	chaos := func(cfg ChaosConfig) func() (simPin, error) {
		return func() (simPin, error) {
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
	checked := func(proto Protocol) func() (simPin, error) {
		return func() (simPin, error) {
			rep, err := RunChecked(CheckedConfig{Protocol: proto, Seed: 7, Teams: 4, Ticks: 40, Faults: true})
			if err != nil {
				return simPin{}, err
			}
			return simPin{events: rep.Events, verdict: rep.String()}, nil
		}
	}
	gated := InterestWorld(16)
	gated.Seed = 3
	ecQuorum := rejoinConfig(EC, 13)
	ecQuorum.QuorumF = 1
	for _, r := range []struct {
		name string
		run  func() (simPin, error)
		want simPin
	}{
		{"run/BSYNC", plain(Config{Game: small(6), Protocol: BSYNC}), simPin{virtual: 259618000, msgs: 602, logical: 1182, stats: "9dfdac6a49959849"}},
		{"run/MSYNC2+delta+interest+shards4", plain(Config{Game: gated, Protocol: MSYNC2,
			DeltaEncode: true, Interest: true, Shards: 4}), simPin{virtual: 367525600, msgs: 1142, logical: 1828, stats: "636ed461701b9600"}},
		{"run/EC", plain(Config{Game: small(6), Protocol: EC}), simPin{virtual: 2962750400, msgs: 2523, logical: 2523, stats: "c55f15bd84596f01"}},
		{"run/LRC", plain(Config{Game: small(6), Protocol: LRC}), simPin{virtual: 2988114800, msgs: 2538, logical: 2538, stats: "e94e3ff4da16e39b"}},
		{"run/CAUSAL", plain(Config{Game: small(6), Protocol: Causal}), simPin{virtual: 262944800, msgs: 616, logical: 616, stats: "9dfdac6a49959849"}},
		{"run/CENTRAL", plain(Config{Game: small(6), Protocol: Central}), simPin{virtual: 0, msgs: 556, logical: 556, stats: "c6c909a159a8d3ff"}},
		{"chaos/BSYNC+restart", chaos(rejoinConfig(BSYNC, 13)), simPin{virtual: 398201200, msgs: 432, logical: 735, stats: "f58a8d42f981bc5d", decided: "b54731a850a7e769"}},
		{"chaos/EC+restart+quorum1", chaos(ecQuorum), simPin{virtual: 2927498800, msgs: 4156, logical: 4156, stats: "ca435410685e7eb1", decided: "3b70ffc66f43aabb"}},
		{"checked/MSYNC2+faults", checked(MSYNC2), simPin{events: 2289, verdict: "ok (2289 events)"}},
		{"checked/EC+faults", checked(EC), simPin{events: 4276, verdict: "ok (4276 events)"}},
	} {
		t.Run(r.name, func(t *testing.T) {
			got, err := r.run()
			if err != nil {
				t.Fatal(err)
			}
			if got != r.want {
				t.Errorf("got  %#v\nwant %#v", got, r.want)
			}
		})
	}
}
