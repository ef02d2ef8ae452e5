// Quorum-replication analysis: the chaos scenarios behind the
// `sdso-bench -fig quorum` panel. Each row runs a crash-and-restart game
// with replication enabled and reports what the machinery did — quorum
// round trips committed, ownership records rebuilt by read repair, and
// replicas caught up from vaulted checkpoints.
package harness

import (
	"fmt"
	"strings"
	"time"

	"sdso/internal/game"
)

// QuorumRow is one replication scenario's outcome.
type QuorumRow struct {
	// Label names the scenario (protocol and crash budget).
	Label string
	// Seeds is how many fault seeds the counters aggregate over.
	Seeds int
	// QuorumRounds counts completed quorum round trips (records
	// committed to a majority, checkpoint stream rounds).
	QuorumRounds int
	// ReadRepairs counts ownership records reconstructed from a quorum
	// read during failover.
	ReadRepairs int
	// ReplicaCatchups counts replicas caught up from a vaulted
	// checkpoint or a reconstructed shard.
	ReplicaCatchups int
	// VirtualDuration is the mean completed-game virtual time.
	VirtualDuration time.Duration
}

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

// QuorumAnalysis runs the replication scenarios over the given fault
// seeds: EC with majority-replicated lock state at f=1 and f=2, and
// MSYNC2 with the f+1 checkpoint stream. Counters are summed across
// seeds; the virtual duration is averaged.
func QuorumAnalysis(seeds []int64, workers int) ([]QuorumRow, error) {
	type scenario struct {
		label string
		proto Protocol
		teams int
		f     int
	}
	scenarios := []scenario{
		{"EC quorum f=1 (3 of 4 teams)", EC, 4, 1},
		{"EC quorum f=2 (5 of 5 teams)", EC, 5, 2},
		{"MSYNC2 checkpoints f=1", MSYNC2, 4, 1},
		{"MSYNC2 checkpoints f=2", MSYNC2, 5, 2},
	}
	var cfgs []ChaosConfig
	for _, sc := range scenarios {
		for _, seed := range seeds {
			cfgs = append(cfgs, quorumScenario(sc.proto, sc.teams, sc.f, seed))
		}
	}
	results, err := RunChaosGrid(cfgs, workers)
	if err != nil {
		return nil, err
	}
	rows := make([]QuorumRow, len(scenarios))
	for i, sc := range scenarios {
		row := QuorumRow{Label: sc.label, Seeds: len(seeds)}
		var total time.Duration
		for j := range seeds {
			res := results[i*len(seeds)+j]
			row.QuorumRounds += res.Metrics.QuorumRounds()
			row.ReadRepairs += res.Metrics.ReadRepairs()
			row.ReplicaCatchups += res.Metrics.ReplicaCatchups()
			total += res.VirtualDuration
		}
		row.VirtualDuration = total / time.Duration(len(seeds))
		rows[i] = row
	}
	return rows, nil
}

// RenderQuorum formats the analysis as the bench panel table.
func RenderQuorum(rows []QuorumRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Quorum replication: crash-and-restart games with replicated lock state / checkpoint streaming\n")
	fmt.Fprintf(&b, "%-30s %8s %12s %12s %10s %12s\n",
		"scenario", "seeds", "quorum rts", "read repairs", "catch-ups", "virt time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %8d %12d %12d %10d %12s\n",
			r.Label, r.Seeds, r.QuorumRounds, r.ReadRepairs, r.ReplicaCatchups, r.VirtualDuration)
	}
	return b.String()
}
