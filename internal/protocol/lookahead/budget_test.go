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
// TestExchangeAllocBudget: a small game over the mem transport may spend at
// most a stated number of heap allocations, and of allocated bytes, per
// player-tick, set-up (the game's start, generated once a game and shared by
// its players) included. Three games, the small siblings of the benchmark's
// two in-process workloads:
//
//   - bsync: n = 8 BSYNC with delta encoding (bsync_mem_n128). Before the
//     tick's maps, per-flush slots and per-record encodes were replaced
//     this figure was about 350; with messages circulating through the wire
//     pool about 34, with one frame a peer a call 32, with the delta
//     tables and slots carved from their owner's block pool 26, with every
//     installed state carved from the store's arena 9.3, with beacons
//     and decoded Ints carved from chunks 8.6 (7.4 later), with small
//     payloads inline in the pooled message and the per-peer scratch sized
//     at New 6.5, with a buffered write's run inside its record and early
//     traffic in one queue 4.7, and with a departed player's frames
//     recycled and freed blocks listing themselves 4.1.
//   - bsync32: the same at n = 32, where a player-tick carries four times
//     the messages and the inline payload shows: 13.4 before it, 10.3 with
//     it, 8.3 with the inline run and the one early queue, 6.4 with the
//     departure recycled and the intrusive free lists.
//   - gated: n = 16 MSYNC2 with delta encoding, the interest set and four
//     shards (msync2_gated_mem_n64). With the map-based interest index and
//     per-peer first blocks from the allocator this was 49; then 33; with
//     the arena 15.3; with carved beacons and decoded Ints 13.6; without
//     the enter-radius fetch 12.2 (11.1 later); with inline payloads 10.2;
//     with the inline run, the one early queue and the withheld-SYNC
//     scratch sized once 7.9; with the departure recycled and the
//     intrusive free lists 7.1.
//
// Bytes: 3 150, 7 000 and 4 550 a player-tick (3 222, 7 230 and 4 650
// before the departure was recycled and freed blocks listed themselves;
// 3 345, 7 464 and 4 712 before the inline run and the one early queue;
// 3 362, 7 577 and 4 744 before the inline payload; 8 581 and 10 150 for
// bsync and gated while every player generated the world and registered a
// record per block: on a 768-block board that was half of what a 20-tick
// player allocates; 4 225 and 5 950 while every slot held its own copy of
// a write and every delta table its entries by value, in blocks that
// doubled as they grew).
//
// Ceilings are the measurement + 15 %.
func TestWholeGameAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		name    string
		teams   int
		ticks   int
		ceiling float64 // allocations per player-tick
		bytes   float64 // bytes allocated per player-tick
		apply   func(*PlayerConfig)
	}{
		{"bsync", 8, 20, 4.7, 3620, func(pc *PlayerConfig) { pc.Protocol = BSYNC }},
		{"bsync32", 32, 20, 7.4, 8050, func(pc *PlayerConfig) { pc.Protocol = BSYNC }},
		{"gated", 16, 30, 8.2, 5230, func(pc *PlayerConfig) { pc.Protocol, pc.Interest, pc.Shards = MSYNC2, true, 4 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := game.DefaultConfig(tc.teams, 1)
			cfg.MaxTicks = tc.ticks
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
						pc := PlayerConfig{
							Game: cfg, DeltaEncode: true,
							Endpoint: net.Endpoint(i), Metrics: metrics.NewCollector(),
						}
						tc.apply(&pc)
						stats[i], errs[i] = RunPlayer(pc)
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
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(ticks)
			t.Logf("%.1f allocations, %.0f bytes per player-tick over %d player-ticks", got, bytes, ticks)
			if got > tc.ceiling {
				t.Errorf("%.1f allocations per player-tick, budget %.1f", got, tc.ceiling)
			}
			if bytes > tc.bytes {
				t.Errorf("%.0f bytes allocated per player-tick, budget %.0f", bytes, tc.bytes)
			}
		})
	}
}
