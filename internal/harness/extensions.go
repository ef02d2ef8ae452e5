package harness

import (
	"sdso/internal/game"
	"sdso/internal/protocol/causal"
	"sdso/internal/protocol/central"
	"sdso/internal/protocol/lrc"
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

// runLRCVtime runs the lazy-release-consistency baseline on the simulated
// cluster (two processes per node, like EC).
func runLRCVtime(cfg Config, c simCluster) (*Result, error) {
	n := cfg.Game.Teams
	collectors := newCollectors(n)
	nodes := make([]*lrc.Node, n)
	stats := make([]game.TeamStats, n)
	c.name, c.procs, c.nodes = "LRC", 2*n, n
	c.setup = func(eps []transport.Endpoint) (err error) {
		for i := range nodes {
			nodes[i], err = lrc.New(lrc.NodeConfig{
				Game:           cfg.Game,
				App:            eps[i],
				Svc:            eps[n+i],
				Metrics:        collectors[i],
				ComputePerTick: computePerTick,
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	err := c.play(cfg, func(i int, _ transport.Endpoint) error { return nodeBody(nodes[i%n], i, n, stats) })
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
