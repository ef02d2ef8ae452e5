package harness

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"sdso/internal/game"
	"sdso/internal/metrics"
)

// simPin is what one deterministic simulated run measured: its virtual
// duration, frames, logical messages and wire bytes (every frame's encoded
// size, as CountSend counts it) and a digest of the per-team stats;
// a chaos run adds a digest of its fault-decision logs, and a checked run
// pins the oracle's event count and verdict, the only numbers its report
// carries.
type simPin struct {
	virtual        time.Duration
	msgs, logical  int
	bytes          int
	stats, decided string
	events         int
	verdict        string
}

func digest(s string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16]
}

func pinOf(res *Result) simPin {
	return simPin{virtual: res.VirtualDuration, msgs: res.Metrics.TotalMsgs(),
		logical: res.Metrics.LogicalMsgs(), stats: digest(fmt.Sprint(res.Stats)),
		bytes: res.Metrics.Sum(func(s metrics.Snapshot) int { return s.BytesSent })}
}

// TestSimRunsPinned pins one small run of every simulated-cluster runner —
// each protocol's plain run, a lookahead and an EC crash-and-restart chaos
// run, and a faulted checked run of each family — to the values they
// measured at the parent of the commit that gave them one cluster builder
// (the gated run's traffic and duration re-recorded, stats unchanged, when
// the enter-radius fetch was deleted). The range3x2 rows (range 3, two
// tanks a team) were recorded at the parent of the commit that moved the
// team's turn into internal/game; both CENTRAL rows were re-recorded when a
// central win stopped ending the other teams' games outside a race. Once
// more, in one commit: every stats digest of a game with a destroyed team
// (DoneTick became the reference's), the two plain BSYNC rows' frames
// (departed peers are sent nothing), and both CENTRAL rows (a client reads
// its clock at return and plays until its last tank is home). And once
// more, with every stats digest held, when every lookahead variant began
// sending nothing to a peer every replica agrees has ended: the frames of
// the gated, range3x2 and BSYNC chaos rows, the chaos row's fault-decision
// digest (faultnet logs a decision a send) and the MSYNC2 checked run's
// event count (a departure mark is one trace event). And once more, with
// every stats digest held, when the start became rendezvous 0 and the box
// terms lost their halving: the traffic and durations of the gated and the
// two MSYNC-family range3x2 rows, and the MSYNC2 checked run's event count.
// The wire bytes of every row were recorded before EC and LRC shared one
// node, which must leave them as they were.
// Spawn order, process numbering and collector wiring all show up here: the
// virtual clock orders events by spawn and faultnet derives its decisions
// per link.
func TestSimRunsPinned(t *testing.T) {
	small := func(teams int) game.Config {
		g := game.DefaultConfig(teams, 1)
		g.Seed, g.MaxTicks = 3, 60
		return g
	}
	// wide is the multi-tank, range-3 game: it pins what range 1 with one
	// tank a team cannot — the range-3 lock and visibility sets, the enemy
	// scan, and in-team sequencing (a team's second tank decides on its
	// first tank's writes).
	wide := func() game.Config {
		g := game.DefaultConfig(6, 3)
		g.Seed, g.MaxTicks, g.TanksPerTeam = 3, 60, 2
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
		{"run/BSYNC", plain(Config{Game: small(6), Protocol: BSYNC}), simPin{virtual: 259618000, msgs: 594, logical: 1166, bytes: 25578, stats: "0cc15bbb0c47cd0e"}},
		{"run/MSYNC2+delta+interest+shards4", plain(Config{Game: gated, Protocol: MSYNC2,
			DeltaEncode: true, Interest: true, Shards: 4}), simPin{virtual: 308543200, msgs: 781, logical: 1415, bytes: 39765, stats: "b052d0568446520b"}},
		{"run/EC", plain(Config{Game: small(6), Protocol: EC}), simPin{virtual: 2962750400, msgs: 2523, logical: 2523, bytes: 21194, stats: "5a67977e585429b1"}},
		{"run/LRC", plain(Config{Game: small(6), Protocol: LRC}), simPin{virtual: 2988114800, msgs: 2538, logical: 2538, bytes: 265445, stats: "870dd50fc6579444"}},
		{"run/CAUSAL", plain(Config{Game: small(6), Protocol: Causal}), simPin{virtual: 262944800, msgs: 616, logical: 616, bytes: 27430, stats: "0cc15bbb0c47cd0e"}},
		{"run/CENTRAL", plain(Config{Game: small(6), Protocol: Central}), simPin{virtual: 1045938800, msgs: 660, logical: 660, bytes: 37907, stats: "f3a9d079fc3f6662"}},
		{"run/BSYNC+range3x2", plain(Config{Game: wide(), Protocol: BSYNC}), simPin{virtual: 260518000, msgs: 580, logical: 1134, bytes: 38654, stats: "eb30ebc84b9cc020"}},
		{"run/MSYNC+range3x2", plain(Config{Game: wide(), Protocol: MSYNC}), simPin{virtual: 215381200, msgs: 374, logical: 730, bytes: 29898, stats: "eb30ebc84b9cc020"}},
		{"run/MSYNC2+range3x2", plain(Config{Game: wide(), Protocol: MSYNC2}), simPin{virtual: 215381200, msgs: 376, logical: 732, bytes: 29933, stats: "eb30ebc84b9cc020"}},
		{"run/EC+range3x2", plain(Config{Game: wide(), Protocol: EC}), simPin{virtual: 13050429200, msgs: 10691, logical: 10691, bytes: 90837, stats: "35de04a2ff8371ee"}},
		{"run/LRC+range3x2", plain(Config{Game: wide(), Protocol: LRC}), simPin{virtual: 12297253200, msgs: 10440, logical: 10440, bytes: 1425704, stats: "31a327fe1f00397f"}},
		{"run/CAUSAL+range3x2", plain(Config{Game: wide(), Protocol: Causal}), simPin{virtual: 268660000, msgs: 600, logical: 600, bytes: 39802, stats: "eb30ebc84b9cc020"}},
		{"run/CENTRAL+range3x2", plain(Config{Game: wide(), Protocol: Central}), simPin{virtual: 1037743200, msgs: 664, logical: 664, bytes: 74814, stats: "d33366b716ed70c3"}},
		{"chaos/BSYNC+restart", chaos(rejoinConfig(BSYNC, 13)), simPin{virtual: 398201200, msgs: 430, logical: 733, bytes: 125543, stats: "f58a8d42f981bc5d", decided: "562790b07b00dee3"}},
		{"chaos/EC+restart+quorum1", chaos(ecQuorum), simPin{virtual: 2927498800, msgs: 4156, logical: 4156, bytes: 192919, stats: "3193089977907780", decided: "3b70ffc66f43aabb"}},
		{"checked/MSYNC2+faults", checked(MSYNC2), simPin{events: 2270, verdict: "ok (2270 events)"}},
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
