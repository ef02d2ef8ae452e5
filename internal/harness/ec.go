package harness

import (
	"sdso/internal/game"
	"sdso/internal/protocol/ec"
	"sdso/internal/transport"
)

// runECVtime runs the entry-consistency baseline on the simulated cluster.
// Each game node contributes two simulated processes — the application
// (proc i) and its co-located lock-manager/object service (proc teams+i).
func runECVtime(cfg Config, c simCluster) (*Result, error) {
	n := cfg.Game.Teams
	collectors := newCollectors(n)
	nodes := make([]*ec.Node, n)
	stats := make([]game.TeamStats, n)
	c.name, c.procs, c.nodes = "EC", 2*n, n
	c.setup = func(eps []transport.Endpoint) (err error) {
		for i := range nodes {
			if nodes[i], err = ec.New(cfg.ecNode(eps[i], eps[n+i], collectors[i])); err != nil {
				return err
			}
		}
		return nil
	}
	err := c.play(cfg, func(i int, _ transport.Endpoint) error { return nodeBody(nodes[i%n], i, n, stats) })
	if err != nil {
		return nil, err
	}
	// Execution time for Figure 5 is the application's completion time;
	// the collector was already stamped by RunApp. Service proc time is
	// protocol overhead accounted through message costs.
	res := collect(cfg, stats, collectors)
	for _, node := range nodes {
		res.Touched = append(res.Touched, node.Store().Materialized())
	}
	return res, nil
}
