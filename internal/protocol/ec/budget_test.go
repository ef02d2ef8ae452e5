package ec

import (
	"runtime"
	"testing"
	"time"

	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/netmodel"
	"sdso/internal/race"
	"sdso/internal/transport"
	"sdso/internal/vtime"
)

// TestWholeGameAllocBudget holds a whole n = 8 EC game on the simulated
// cluster to its allocation budget per player-tick (DESIGN.md §15): lock
// requests, grants, releases, pulls and replies circulate through the wire
// pool, the Ints they carry are carved, the lock manager answers from its
// scratch, and the team's turn reuses its own. The ceilings are the
// measurement (2.71 allocations, 1 739 B) plus 15 %; before the message
// rule reached EC the same games made 47.0 allocations of 3 713 B.
func TestWholeGameAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const ceiling, bytes = 3.1, 2000 // per player-tick
	cfg := game.DefaultConfig(8, 1)
	cfg.MaxTicks = 40
	play := func(seed int64) (ticks int) {
		cfg.Seed = seed
		n := cfg.Teams
		links := netmodel.Ethernet10Mbps()
		links.HostOf = func(proc int) int { return proc % n }
		sim := vtime.NewSim(vtime.Config{Links: netmodel.NewCluster(links), Horizon: 10 * time.Minute})
		nodes := make([]*Node, n)
		stats := make([]game.TeamStats, n)
		errs := make([]error, 2*n)
		for p := 0; p < 2*n; p++ {
			sim.Spawn(func(*vtime.Proc) {
				if p < n {
					stats[p], errs[p] = nodes[p].RunApp()
				} else {
					errs[p] = nodes[p-n].RunService()
				}
			})
		}
		for i := range nodes {
			var err error
			nodes[i], err = New(NodeConfig{
				Game:           cfg,
				App:            transport.NewSimEndpoint(sim.Proc(i), 2*n, transport.FixedSize(2048)),
				Svc:            transport.NewSimEndpoint(sim.Proc(n+i), 2*n, transport.FixedSize(2048)),
				Metrics:        metrics.NewCollector(),
				ComputePerTick: 50 * time.Microsecond,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := sim.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for p, err := range errs {
			if err != nil {
				t.Fatalf("seed %d process %d: %v", seed, p, err)
			}
		}
		for _, st := range stats {
			ticks += st.Ticks
		}
		return ticks
	}
	play(1) // fill the wire pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ticks := 0
	for seed := int64(2); seed <= 9; seed++ {
		ticks += play(seed)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / float64(ticks)
	gotBytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(ticks)
	t.Logf("%.2f allocations, %.0f bytes per player-tick over %d player-ticks", got, gotBytes, ticks)
	if got > ceiling {
		t.Errorf("%.2f allocations per player-tick, budget %.1f", got, ceiling)
	}
	if gotBytes > bytes {
		t.Errorf("%.0f bytes per player-tick, budget %d", gotBytes, bytes)
	}
}
