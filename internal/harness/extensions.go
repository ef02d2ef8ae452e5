package harness

import (
	"sdso/internal/game"
	"sdso/internal/protocol/causal"
	"sdso/internal/protocol/central"
	"sdso/internal/protocol/lrc"
	"sdso/internal/transport"
)

// runCausalVtime runs the causal-memory baseline on the simulated cluster.
func runCausalVtime(cfg Config) (*Result, error) {
	n := cfg.Game.Teams
	collectors := newCollectors(n)
	stats := make([]game.TeamStats, n)
	err := simCluster{name: "CAUSAL", procs: n}.play(cfg, func(i int, ep transport.Endpoint) (err error) {
		stats[i], err = causal.RunPlayer(causal.PlayerConfig{
			Game:           cfg.Game,
			Endpoint:       ep,
			Metrics:        collectors[i],
			ComputePerTick: cfg.ComputePerTick,
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
func runLRCVtime(cfg Config) (*Result, error) {
	n := cfg.Game.Teams
	collectors := newCollectors(n)
	nodes := make([]*lrc.Node, n)
	stats := make([]game.TeamStats, n)
	err := simCluster{name: "LRC", procs: 2 * n, nodes: n, setup: func(eps []transport.Endpoint) (err error) {
		for i := range nodes {
			nodes[i], err = lrc.New(lrc.NodeConfig{
				Game:           cfg.Game,
				App:            eps[i],
				Svc:            eps[n+i],
				Metrics:        collectors[i],
				ComputePerTick: cfg.ComputePerTick,
			})
			if err != nil {
				return err
			}
		}
		return nil
	}}.play(cfg, func(i int, _ transport.Endpoint) error { return nodeBody(nodes[i%n], i, n, stats) })
	if err != nil {
		return nil, err
	}
	return collect(cfg, stats, collectors), nil
}

// runCentralVtime runs the client-server alternative (paper §2.1) on the
// simulated cluster: n client hosts plus one dedicated server host (process
// n) whose NIC becomes the bottleneck.
func runCentralVtime(cfg Config) (*Result, error) {
	n := cfg.Game.Teams
	collectors := newCollectors(n + 1)
	stats := make([]game.TeamStats, n)
	err := simCluster{name: "CENTRAL", procs: n + 1}.play(cfg, func(i int, ep transport.Endpoint) (err error) {
		if i == n {
			return central.RunServer(central.ServerConfig{Game: cfg.Game, Endpoint: ep, Metrics: collectors[n]})
		}
		stats[i], err = central.RunClient(central.ClientConfig{
			Game:           cfg.Game,
			Endpoint:       ep,
			Metrics:        collectors[i],
			ComputePerTick: cfg.ComputePerTick,
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
