package harness

import (
	"sdso/internal/game"
	"sdso/internal/protocol/causal"
	"sdso/internal/protocol/central"
	"sdso/internal/transport"
)

// runCausalVtime runs the causal-memory baseline on the simulated cluster.
func runCausalVtime(cfg Config, c simCluster) (*Result, error) {
	n := cfg.Game.Teams
	collectors := newCollectors(n)
	stats := make([]game.TeamStats, n)
	c.name, c.procs = "CAUSAL", n
	err := c.play(cfg, func(i int, ep transport.Endpoint) (err error) {
		stats[i], err = causal.RunPlayer(causal.PlayerConfig{
			Game:           cfg.Game,
			Endpoint:       ep,
			Metrics:        collectors[i],
			ComputePerTick: computePerTick,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	return collect(cfg, stats, collectors), nil
}

// runCentralVtime runs the client-server alternative (paper §2.1) on the
// simulated cluster: n client hosts plus one dedicated server host (process
// n) whose NIC becomes the bottleneck.
func runCentralVtime(cfg Config, c simCluster) (*Result, error) {
	n := cfg.Game.Teams
	collectors := newCollectors(n + 1)
	stats := make([]game.TeamStats, n)
	c.name, c.procs = "CENTRAL", n+1
	err := c.play(cfg, func(i int, ep transport.Endpoint) (err error) {
		if i == n {
			return central.RunServer(central.ServerConfig{Game: cfg.Game, Endpoint: ep, Metrics: collectors[n]})
		}
		stats[i], err = central.RunClient(central.ClientConfig{
			Game:           cfg.Game,
			Endpoint:       ep,
			Metrics:        collectors[i],
			ComputePerTick: computePerTick,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	// Client collectors carry the per-team stats; the server's messages
	// are folded in as an extra snapshot (it has no game stats).
	res := collect(cfg, stats, collectors[:n])
	res.Metrics.Procs = append(res.Metrics.Procs, collectors[n].Snapshot())
	return res, nil
}
