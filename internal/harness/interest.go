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
	"strings"
	"time"

	"sdso/internal/game"
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

// InterestRow is one process-count cell of the interest panel, averaged
// over the seeds.
type InterestRow struct {
	N     int
	Seeds int
	// PlainMsPerMod / InterestMsPerMod are the Figure-5 normalized times
	// with the filter off / on.
	PlainMsPerMod, InterestMsPerMod float64
	// PlainMsgsPerTick / InterestMsgsPerTick are wire messages per
	// process-tick with the filter off / on.
	PlainMsgsPerTick, InterestMsgsPerTick float64
	// SetPeak, Churn, and Fetches aggregate the interest counters across
	// the on-side runs: the largest interest set any process held, total
	// enter/leave transitions, and enter-radius on-demand fetches.
	SetPeak, Churn, Fetches int
	Wall                    time.Duration
}

// Speedup is the panel's headline: normalized-time improvement from
// bounding DATA fanout by the interest set.
func (r InterestRow) Speedup() float64 {
	if r.InterestMsPerMod <= 0 {
		return 0
	}
	return r.PlainMsPerMod / r.InterestMsPerMod
}

// runInterestCell plays one BSYNC game with delta encoding and batching
// on and returns its normalized time and messages per process-tick,
// folding the interest counters into row when the filter is on.
func runInterestCell(n int, seed int64, on bool, row *InterestRow) (msPerMod, msgsPerTick float64, err error) {
	g := InterestWorld(n)
	g.Seed = seed
	cfg := Config{
		Game:          g,
		Protocol:      BSYNC,
		DeltaEncode:   true,
		MaxBatchTicks: deltaPanelBatch,
		Interest:      on,
	}
	res, err := Run(cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("interest panel n=%d seed=%d interest=%v: %w", n, seed, on, err)
	}
	ticks := 0
	for _, s := range res.Metrics.Procs {
		ticks += s.Ticks
	}
	if ticks == 0 {
		return 0, 0, fmt.Errorf("interest panel n=%d seed=%d interest=%v: no ticks played", n, seed, on)
	}
	if on {
		if peak := res.Metrics.InterestSetPeak(); peak > row.SetPeak {
			row.SetPeak = peak
		}
		row.Churn += res.Metrics.InterestChurn()
		row.Fetches += res.Metrics.InterestFetches()
	}
	return MetricNormalizedTime(res), float64(res.Metrics.TotalMsgs()) / float64(ticks), nil
}

// InterestAnalysis runs the interest panel. Ns defaults to {64, 128, 256}
// and seeds to {1, 2, 3}.
func InterestAnalysis(ns []int, seeds []int64) ([]InterestRow, error) {
	if len(ns) == 0 {
		ns = []int{64, 128, 256}
	}
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3}
	}
	rows := make([]InterestRow, 0, len(ns))
	for _, n := range ns {
		row := InterestRow{N: n, Seeds: len(seeds)}
		start := time.Now()
		for _, seed := range seeds {
			offMs, offMsgs, err := runInterestCell(n, seed, false, &row)
			if err != nil {
				return nil, err
			}
			onMs, onMsgs, err := runInterestCell(n, seed, true, &row)
			if err != nil {
				return nil, err
			}
			row.PlainMsPerMod += offMs / float64(len(seeds))
			row.InterestMsPerMod += onMs / float64(len(seeds))
			row.PlainMsgsPerTick += offMsgs / float64(len(seeds))
			row.InterestMsgsPerTick += onMsgs / float64(len(seeds))
		}
		row.Wall = time.Since(start)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderInterest formats the panel as a table.
func RenderInterest(rows []InterestRow) string {
	var b strings.Builder
	b.WriteString("Interest management: BSYNC at fixed density (~48 cells/player), ")
	fmt.Fprintf(&b, "delta+%d-tick batching, filter off vs on\n", deltaPanelBatch)
	fmt.Fprintf(&b, "%5s %6s %9s %9s %8s %8s %8s %8s %8s %9s %9s\n",
		"n", "seeds", "ms/mod", "ms/mod", "speedup", "msg/tick", "msg/tick", "setpeak", "churn", "fetches", "wall")
	fmt.Fprintf(&b, "%5s %6s %9s %9s %8s %8s %8s %8s %8s %9s %9s\n",
		"", "", "plain", "filter", "", "plain", "filter", "", "", "", "")
	for _, r := range rows {
		fmt.Fprintf(&b, "%5d %6d %9.2f %9.2f %7.2fx %8.1f %8.1f %8d %8d %9d %9s\n",
			r.N, r.Seeds, r.PlainMsPerMod, r.InterestMsPerMod, r.Speedup(),
			r.PlainMsgsPerTick, r.InterestMsgsPerTick,
			r.SetPeak, r.Churn, r.Fetches,
			r.Wall.Round(time.Millisecond))
	}
	return b.String()
}
