package harness

import (
	"fmt"

	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/netmodel"
	"sdso/internal/protocol/causal"
	"sdso/internal/protocol/lrc"
	"sdso/internal/transport"
	"sdso/internal/vtime"
)

// runCausalVtime runs the causal-memory baseline on the simulated cluster.
func runCausalVtime(cfg Config) (*Result, error) {
	n := cfg.Game.Teams
	sim := vtime.NewSim(vtime.Config{
		Links:   netmodel.NewCluster(cfg.Net),
		Horizon: cfg.Horizon,
	})
	collectors := make([]*metrics.Collector, n)
	stats := make([]game.TeamStats, n)
	errs := make([]error, n)
	eps := make([]*transport.SimEndpoint, n)
	for i := 0; i < n; i++ {
		i := i
		collectors[i] = metrics.NewCollector()
		sim.Spawn(func(p *vtime.Proc) {
			stats[i], errs[i] = causal.RunPlayer(causal.PlayerConfig{
				Game:           cfg.Game,
				Endpoint:       eps[i],
				Metrics:        collectors[i],
				ComputePerTick: cfg.ComputePerTick,
			})
		})
	}
	for i := 0; i < n; i++ {
		eps[i] = transport.NewSimEndpoint(sim.Proc(i), n, transport.FixedSize(cfg.MsgSize))
	}
	if err := sim.Run(); err != nil {
		return nil, fmt.Errorf("CAUSAL simulation: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("CAUSAL process %d: %w", i, err)
		}
	}
	return collect(cfg, stats, collectors), nil
}

// runLRCVtime runs the lazy-release-consistency baseline on the simulated
// cluster (two processes per node, like EC).
func runLRCVtime(cfg Config) (*Result, error) {
	n := cfg.Game.Teams
	net := cfg.Net
	net.HostOf = func(proc int) int { return proc % n }
	sim := vtime.NewSim(vtime.Config{
		Links:   netmodel.NewCluster(net),
		Horizon: cfg.Horizon,
	})
	collectors := make([]*metrics.Collector, n)
	nodes := make([]*lrc.Node, n)
	stats := make([]game.TeamStats, n)
	appErrs := make([]error, n)
	svcErrs := make([]error, n)
	appEPs := make([]*transport.SimEndpoint, n)
	svcEPs := make([]*transport.SimEndpoint, n)
	for i := 0; i < n; i++ {
		i := i
		collectors[i] = metrics.NewCollector()
		sim.Spawn(func(p *vtime.Proc) {
			stats[i], appErrs[i] = nodes[i].RunApp()
		})
	}
	for i := 0; i < n; i++ {
		i := i
		sim.Spawn(func(p *vtime.Proc) {
			svcErrs[i] = nodes[i].RunService()
		})
	}
	for i := 0; i < n; i++ {
		appEPs[i] = transport.NewSimEndpoint(sim.Proc(i), 2*n, transport.FixedSize(cfg.MsgSize))
		svcEPs[i] = transport.NewSimEndpoint(sim.Proc(n+i), 2*n, transport.FixedSize(cfg.MsgSize))
		node, err := lrc.New(lrc.NodeConfig{
			Game:           cfg.Game,
			App:            appEPs[i],
			Svc:            svcEPs[i],
			Metrics:        collectors[i],
			ComputePerTick: cfg.ComputePerTick,
		})
		if err != nil {
			return nil, err
		}
		nodes[i] = node
	}
	if err := sim.Run(); err != nil {
		return nil, fmt.Errorf("LRC simulation: %w", err)
	}
	for i := 0; i < n; i++ {
		if appErrs[i] != nil {
			return nil, fmt.Errorf("LRC app %d: %w", i, appErrs[i])
		}
		if svcErrs[i] != nil {
			return nil, fmt.Errorf("LRC service %d: %w", i, svcErrs[i])
		}
	}
	return collect(cfg, stats, collectors), nil
}
