package harness

// The interest-management panel (sdso-bench -fig interest): Figure-5
// normalized time and message fanout with the spatial interest filter
// off versus on, swept across fixed-density worlds — the map area grows
// with the player count so the sensing radius always covers a
// constant-size neighborhood. Both sides run the delta-encoded, batched
// exchange (the PR 8 configuration), so the delta isolates what bounding
// DATA fanout by interest buys on top of payload compression.

import (
	"fmt"
	"strconv"

	"sdso/internal/game"
	"sdso/internal/metrics"
)

// interestPanelTicks fixes the game length so message counts divide by an
// identical slot count on both sides of each cell.
const interestPanelTicks = 60

// InterestWorld builds the fixed-density world for n players: the area
// scales linearly with n at the default density (DefaultConfig is 32x24
// for 16 players, 48 cells each), and the bonus/bomb scatter scales with
// the area so object density is constant too. Used by the interest and
// shard panels and by the benchmark's gated workload.
func InterestWorld(n int) game.Config {
	g := game.DefaultConfig(n, 1)
	var w, h int
	switch n {
	case 64:
		w, h = 64, 48
	case 128:
		w, h = 96, 64
	case 256:
		w, h = 128, 96
	default:
		w, h = g.Width, g.Height
	}
	scale := (w * h) / (32 * 24)
	g.Width, g.Height = w, h
	g.Bonuses *= scale
	g.Bombs *= scale
	g.MaxTicks = interestPanelTicks
	return g
}

// msgsPerTick is wire messages per process-tick of one game.
var msgsPerTick = perTick(metrics.Snapshot.TotalMsgs)

// interestPanel plays one BSYNC game per n, seed and side with delta
// encoding and batching on: "plain", or "filter" with the interest filter
// on. The filter side's interest counters aggregate its games: the largest
// interest set any process held and the total enter/leave transitions.
func interestPanel(ns []int, seeds []int64) gridPanel[int, string] {
	return gridPanel[int, string]{
		title: "Interest management: BSYNC at fixed density (~48 cells/player), " +
			fmt.Sprintf("delta+%d-tick batching, filter off vs on", deltaPanelBatch),
		sep: " ",
		grid: grid[int, string]{
			name: "interest panel", keys: ns, variants: []string{"plain", "filter"}, seeds: seeds,
			cell: func(n int, side string, seed int64) (*Result, error) {
				g := InterestWorld(n)
				g.Seed = seed
				return Run(Config{Game: g, Protocol: BSYNC, DeltaEncode: true, MaxBatchTicks: deltaPanelBatch, Interest: side == "filter"})
			},
		},
		cols: []column[line[int]]{
			intKey("n", 5), seedsCol[int](6),
			meanCol[int]("ms/mod", "plain", 9, 2, 0, MetricNormalizedTime),
			meanCol[int]("ms/mod", "filter", 9, 2, 1, MetricNormalizedTime),
			// The headline: what bounding DATA fanout by the interest set buys.
			{"speedup", "", 8, func(l line[int]) string {
				return fixed(mean(l.games[0], MetricNormalizedTime)/mean(l.games[1], MetricNormalizedTime), 2) + "x"
			}},
			meanCol[int]("msg/tick", "plain", 8, 1, 0, msgsPerTick),
			meanCol[int]("msg/tick", "filter", 8, 1, 1, msgsPerTick),
			{"setpeak", "", 8, func(l line[int]) string {
				peak := 0
				for _, r := range l.games[1] {
					for _, s := range r.Metrics.Procs {
						peak = max(peak, s.InterestSetPeak)
					}
				}
				return strconv.Itoa(peak)
			}},
			sumCol[int]("churn", 8, 1, func(s metrics.Snapshot) int { return s.InterestChurn }),
		},
	}
}
