package harness

// The delta-exchange panel (sdso-bench -fig delta): wire bytes per
// exchange slot and Figure-5 normalized time with the delta-capable
// record encoding and tick batching off versus on, swept across process
// counts the paper never reached. Runs on the simulated cluster, like
// Figures 5-8, so the off side of every cell is the exact machinery
// behind the paper figures.

import (
	"fmt"

	"sdso/internal/game"
	"sdso/internal/metrics"
)

// deltaPanelBatch is the batching factor the panel's "on" cells run
// with; it matches the checked oracle matrix.
const deltaPanelBatch = 4

// deltaPanelTicks fixes the game length so bytes divide by an identical
// exchange-slot count on both sides of each cell.
const deltaPanelTicks = 60

// Per-game ratios of the delta panel: wire bytes per exchange slot (one
// slot = one process-tick), and the share of those bytes that is not
// Msg.Payload (header and Ints).
var bytesPerSlot = perTick(bytesSent)

func envelope(r *Result) float64 {
	return 1 - float64(r.Metrics.PayloadBytes())/float64(total(bytesSent, r))
}

func bytesSent(s metrics.Snapshot) int { return s.BytesSent }

// deltaPanel plays one 60-tick BSYNC game per n, seed and side: "plain",
// or "delta" with the delta encoding and 4-tick batching on. The delta
// side's protocol counters are summed over seeds; its mismatches ("miss")
// must stay zero on the fault-free simulated cluster.
func deltaPanel(ns []int, seeds []int64) gridPanel[int, string] {
	return gridPanel[int, string]{
		title: "Delta exchange: BSYNC wire bytes per exchange slot and normalized time, " +
			fmt.Sprintf("plain vs delta-encoded + %d-tick batching", deltaPanelBatch),
		sep: " ",
		grid: grid[int, string]{
			name: "delta panel", keys: ns, variants: []string{"plain", "delta"}, seeds: seeds,
			cell: func(n int, side string, seed int64) (*Result, error) {
				g := game.DefaultConfig(n, 1)
				g.MaxTicks = deltaPanelTicks
				g.Seed = seed
				cfg := Config{Game: g, Protocol: BSYNC}
				if side == "delta" {
					cfg.DeltaEncode = true
					cfg.MaxBatchTicks = deltaPanelBatch
				}
				return Run(cfg)
			},
		},
		cols: []column[line[int]]{
			intKey("n", 5), seedsCol[int](6),
			meanCol[int]("B/x", "plain", 9, 1, 0, bytesPerSlot),
			meanCol[int]("B/x", "delta", 9, 1, 1, bytesPerSlot),
			{"saved", "", 7, func(l line[int]) string { return fixed(savedPct(l), 1) + "%" }},
			meanCol[int]("envelope", "plain", 8, 2, 0, envelope),
			meanCol[int]("envelope", "delta", 8, 2, 1, envelope),
			meanCol[int]("ms/mod", "plain", 9, 2, 0, MetricNormalizedTime),
			meanCol[int]("ms/mod", "delta", 9, 2, 1, MetricNormalizedTime),
			sumCol[int]("drecs", 8, 1, func(s metrics.Snapshot) int { return s.DeltaRecords }),
			sumCol[int]("dsaved-B", 11, 1, func(s metrics.Snapshot) int { return s.DeltaBytesSaved }),
			sumCol[int]("batched", 9, 1, func(s metrics.Snapshot) int { return s.TicksBatched }),
			sumCol[int]("miss", 6, 1, func(s metrics.Snapshot) int { return s.DeltaMismatches }),
		},
	}
}

// savedPct is the panel's headline: the percentage of wire bytes per
// exchange slot the delta side saves over the plain side.
func savedPct(l line[int]) float64 {
	return (1 - mean(l.games[1], bytesPerSlot)/mean(l.games[0], bytesPerSlot)) * 100
}
