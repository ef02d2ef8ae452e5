package lookahead

import (
	"runtime"
	"sync"
	"testing"

	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/race"
	"sdso/internal/transport"
)

// TestWholeGameAllocBudget is the whole-path companion of core's
// TestExchangeAllocBudget: an n = 8 BSYNC game with delta encoding over the
// mem transport — the small sibling of the benchmark's bsync_mem_n128 — may
// spend at most a stated number of heap allocations per player-tick, set-up
// (world generation, Share of every block) included. Before the tick's
// maps, per-flush slots and per-record encodes were replaced this figure
// was about 350; with messages circulating through the wire pool instead of
// being allocated per rendezvous it was about 34, and with one frame a peer
// a call — fewer pooled structs and beacons in flight — it is 32.
func TestWholeGameAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const ceiling = 38
	cfg := game.DefaultConfig(8, 1)
	cfg.MaxTicks = 20
	play := func(seed int64) (ticks int) {
		cfg.Seed = seed
		net := transport.NewMemNetwork(cfg.Teams)
		defer net.Close()
		stats := make([]game.TeamStats, cfg.Teams)
		errs := make([]error, cfg.Teams)
		var wg sync.WaitGroup
		for i := range stats {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				stats[i], errs[i] = RunPlayer(PlayerConfig{
					Game: cfg, Protocol: BSYNC, DeltaEncode: true,
					Endpoint: net.Endpoint(i), Metrics: metrics.NewCollector(),
				})
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("seed %d player %d: %v", seed, i, err)
			}
			ticks += stats[i].Ticks
		}
		return ticks
	}
	play(1) // warm the runtime's own pools and lazily built tables
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ticks := 0
	for seed := int64(2); seed <= 5; seed++ {
		ticks += play(seed)
	}
	runtime.ReadMemStats(&after)
	got := float64(after.Mallocs-before.Mallocs) / float64(ticks)
	t.Logf("%.1f allocations per player-tick over %d player-ticks", got, ticks)
	if got > ceiling {
		t.Errorf("%.1f allocations per player-tick, budget %d", got, ceiling)
	}
}
