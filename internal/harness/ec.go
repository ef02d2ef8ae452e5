package harness

import (
	"fmt"
	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/netmodel"
	"sdso/internal/protocol/ec"
	"sdso/internal/transport"
	"sdso/internal/vtime"
)

// runECVtime runs the entry-consistency baseline on the simulated cluster.
// Each game node contributes two simulated processes — the application
// (proc i) and its co-located lock-manager/object service (proc teams+i) —
// mapped onto the same simulated host, so lock requests to the local
// manager take the cheap loopback path (probability 1/n, as in the paper).
func runECVtime(cfg Config) (*Result, error) {
	n := cfg.Game.Teams
	net := cfg.Net
	net.HostOf = func(proc int) int { return proc % n }
	sim := vtime.NewSim(vtime.Config{
		Links:   netmodel.NewCluster(net),
		Horizon: cfg.Horizon,
	})

	collectors := make([]*metrics.Collector, n)
	nodes := make([]*ec.Node, n)
	stats := make([]game.TeamStats, n)
	appErrs := make([]error, n)
	svcErrs := make([]error, n)
	appEPs := make([]*transport.SimEndpoint, n)
	svcEPs := make([]*transport.SimEndpoint, n)

	for i := 0; i < n; i++ {
		i := i
		collectors[i] = metrics.NewCollector()
		sim.Spawn(func(p *vtime.Proc) { // app proc i
			stats[i], appErrs[i] = nodes[i].RunApp()
		})
	}
	for i := 0; i < n; i++ {
		i := i
		sim.Spawn(func(p *vtime.Proc) { // svc proc n+i
			svcErrs[i] = nodes[i].RunService()
		})
	}
	for i := 0; i < n; i++ {
		appEPs[i] = transport.NewSimEndpoint(sim.Proc(i), 2*n, transport.FixedSize(cfg.MsgSize))
		svcEPs[i] = transport.NewSimEndpoint(sim.Proc(n+i), 2*n, transport.FixedSize(cfg.MsgSize))
		node, err := ec.New(ec.NodeConfig{
			Game:           cfg.Game,
			App:            appEPs[i],
			Svc:            svcEPs[i],
			Metrics:        collectors[i],
			ComputePerTick: cfg.ComputePerTick,
			SuspectTimeout: cfg.SuspectTimeout,
		})
		if err != nil {
			return nil, err
		}
		nodes[i] = node
	}
	if err := sim.Run(); err != nil {
		return nil, fmt.Errorf("EC simulation: %w", err)
	}
	for i := 0; i < n; i++ {
		if appErrs[i] != nil {
			return nil, fmt.Errorf("EC app %d: %w", i, appErrs[i])
		}
		if svcErrs[i] != nil {
			return nil, fmt.Errorf("EC service %d: %w", i, svcErrs[i])
		}
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
