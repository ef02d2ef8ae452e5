// Quorum-replication analysis: the chaos scenarios behind the
// `sdso-bench -fig quorum` panel. Each row runs a crash-and-restart game
// with replication enabled and reports what the machinery did — quorum
// round trips committed, ownership records rebuilt by read repair, and
// replicas caught up from vaulted checkpoints.
package harness

import (
	"time"

	"sdso/internal/game"
	"sdso/internal/metrics"
)

// quorumScenario builds one crash-and-restart chaos config with
// replication on.
func quorumScenario(proto Protocol, teams, f int, seed int64) ChaosConfig {
	g := game.DefaultConfig(teams, 1)
	g.Seed = 7
	g.MaxTicks = 40
	cfg := ChaosConfig{
		Config:    Config{Game: g, Protocol: proto},
		Seed:      seed,
		CrashTeam: 1,
	}
	if proto == EC {
		cfg.CrashAfter = 80 * time.Millisecond
		cfg.RestartAfter = 320 * time.Millisecond
		cfg.QuorumF = f
		// Each dirty release now waits on a quorum round to 2f backups
		// before its grants escape, so the grant-wait failure detector
		// must be conservative enough to absorb that extra latency — at
		// the chaos default (5ms) the f=2 round trip alone triggers
		// false suspicions and the views diverge.
		cfg.SuspectTimeout = time.Duration(10*(f+1)) * time.Millisecond
	} else {
		cfg.CrashTick = 10
		cfg.CheckpointEvery = 1
		cfg.CheckpointF = f
		// Down for the survivors' eviction bound plus one maximal wait.
		cfg.RestartAfter = (15 + 8) * 5 * time.Millisecond
	}
	return cfg
}

// quorumCase is one row of the quorum panel.
type quorumCase struct {
	label    string
	proto    Protocol
	teams, f int
}

// quorumPanel plays the replication scenarios over the fault seeds: EC
// with majority-replicated lock state at f=1 and f=2, and MSYNC2 with the
// f+1 checkpoint stream. Counters are summed over seeds; the virtual time
// is the mean completed-game time.
func quorumPanel(seeds []int64) gridPanel[quorumCase, string] {
	return gridPanel[quorumCase, string]{
		title: "Quorum replication: crash-and-restart games with replicated lock state / checkpoint streaming",
		sep:   " ",
		grid: grid[quorumCase, string]{
			name: "quorum panel",
			keys: []quorumCase{
				{"EC quorum f=1 (3 of 4 teams)", EC, 4, 1},
				{"EC quorum f=2 (5 of 5 teams)", EC, 5, 2},
				{"MSYNC2 checkpoints f=1", MSYNC2, 4, 1},
				{"MSYNC2 checkpoints f=2", MSYNC2, 5, 2},
			},
			variants: []string{"chaos"}, seeds: seeds,
			cell: func(c quorumCase, _ string, seed int64) (*Result, error) {
				res, err := RunChaos(quorumScenario(c.proto, c.teams, c.f, seed))
				if err != nil {
					return nil, err
				}
				return res.Result, nil
			},
		},
		cols: []column[line[quorumCase]]{
			{"scenario", "", -30, func(l line[quorumCase]) string { return l.key.label }},
			seedsCol[quorumCase](8),
			sumCol[quorumCase]("quorum rts", 12, 0, func(s metrics.Snapshot) int { return s.QuorumRounds }),
			sumCol[quorumCase]("read repairs", 12, 0, func(s metrics.Snapshot) int { return s.ReadRepairs }),
			sumCol[quorumCase]("catch-ups", 10, 0, func(s metrics.Snapshot) int { return s.ReplicaCatchups }),
			{"virt time", "", 12, func(l line[quorumCase]) string {
				var d time.Duration
				for _, r := range l.games[0] {
					d += r.VirtualDuration
				}
				return (d / time.Duration(len(l.games[0]))).String()
			}},
		},
	}
}
