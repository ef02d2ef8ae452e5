package lrc

import (
	"runtime"
	"testing"
	"time"

	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/netmodel"
	"sdso/internal/protocol/ec"
	"sdso/internal/race"
	"sdso/internal/transport"
	"sdso/internal/vtime"
)

// TestWholeGameAllocBudget holds a whole n = 8 LRC game on the simulated
// cluster to its allocation budget per player-tick, as ec's test of the
// same name does for EC: a board is encoded into scratch its side of the
// node owns and merged straight from the bytes it arrives in, so what
// remains is EC's node and the boards' own growth. The ceilings are the
// measurement (5.10 allocations, 2 773 B) plus 15 %; when every board was
// encoded into a fresh buffer and decoded into a fresh map, the same games
// made 94.65 allocations of 29 964 B.
func TestWholeGameAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const ceiling, bytes = 5.9, 3200 // per player-tick
	cfg := game.DefaultConfig(8, 1)
	cfg.MaxTicks = 40
	play := func(seed int64) (ticks int) {
		cfg.Seed = seed
		n := cfg.Teams
		links := netmodel.Ethernet10Mbps()
		links.HostOf = func(proc int) int { return proc % n }
		sim := vtime.NewSim(vtime.Config{Links: netmodel.NewCluster(links), Horizon: 10 * time.Minute})
		nodes := make([]*ec.Node, n)
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
			nodes[i], err = New(ec.NodeConfig{
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
