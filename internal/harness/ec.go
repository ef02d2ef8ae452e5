package harness

import (
	"sdso/internal/game"
	"sdso/internal/protocol/ec"
	"sdso/internal/protocol/lrc"
	"sdso/internal/transport"
)

// runECVtime runs a lock protocol on the simulated cluster: the
// entry-consistency baseline, or LRC, which is EC's node with the
// notice-board policy. Each game node contributes two simulated processes —
// the application (proc i) and its co-located lock-manager/object service
// (proc teams+i).
func runECVtime(cfg Config, c simCluster) (*Result, error) {
	n := cfg.Game.Teams
	collectors := newCollectors(n)
	nodes := make([]*ec.Node, n)
	stats := make([]game.TeamStats, n)
	newNode := ec.New
	if cfg.Protocol == LRC {
		newNode = lrc.New
	}
	c.name, c.procs, c.nodes = string(cfg.Protocol), 2*n, n
	c.setup = func(eps []transport.Endpoint) (err error) {
		for i := range nodes {
			if nodes[i], err = newNode(cfg.ecNode(eps[i], eps[n+i], collectors[i])); err != nil {
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
