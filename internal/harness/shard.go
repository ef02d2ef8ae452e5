package harness

// The sharded-sweep panel (sdso-bench -fig shard): Figure-5 normalized
// time and message fanout with the world partitioned into shards and
// the DATA fanout bounded by shard residency, swept across the same
// fixed-density worlds as the interest panel. Cells run the delta +
// batching exchange (the PR 8 configuration) with the residency filter
// as the only spatial bound, so Shards=1 rows are the unsharded
// baseline and the delta isolates what residency buys. (Composed with
// the interest filter the gate is strictly weaker at this density —
// interest vetoes first and residency adds nothing; the oracle tests
// cover that intersection.)

import (
	"fmt"
	"strings"
	"time"
)

// ShardRow is one (process count, shard count) cell of the shard panel,
// averaged over the seeds. Shards=1 rows are the unsharded baseline.
type ShardRow struct {
	N, Shards, Seeds int
	// MsPerMod is the Figure-5 normalized time; MsgsPerTick the wire
	// messages per process-tick.
	MsPerMod, MsgsPerTick float64
	// Vetoes counts DATA flushes withheld by the residency intersection
	// across the runs.
	Vetoes int
	Wall   time.Duration
}

// runShardCell plays one BSYNC game with delta encoding and batching
// on (the PR 8 configuration) plus the given shard count, returning
// normalized time and messages per process-tick.
func runShardCell(n, shards int, seed int64, row *ShardRow) (msPerMod, msgsPerTick float64, err error) {
	g := InterestWorld(n)
	g.Seed = seed
	cfg := Config{
		Game:          g,
		Protocol:      BSYNC,
		DeltaEncode:   true,
		MaxBatchTicks: deltaPanelBatch,
		Shards:        shards,
	}
	res, err := Run(cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("shard panel n=%d shards=%d seed=%d: %w", n, shards, seed, err)
	}
	ticks := 0
	for _, s := range res.Metrics.Procs {
		ticks += s.Ticks
	}
	if ticks == 0 {
		return 0, 0, fmt.Errorf("shard panel n=%d shards=%d seed=%d: no ticks played", n, shards, seed)
	}
	row.Vetoes += res.Metrics.ShardVetoes()
	return MetricNormalizedTime(res), float64(res.Metrics.TotalMsgs()) / float64(ticks), nil
}

// ShardAnalysis runs the shard panel. Ns defaults to {64, 128, 256},
// shard counts to {1, 4, 16}, and seeds to {1, 2, 3}.
func ShardAnalysis(ns, shardCounts []int, seeds []int64) ([]ShardRow, error) {
	if len(ns) == 0 {
		ns = []int{64, 128, 256}
	}
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 4, 16}
	}
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3}
	}
	rows := make([]ShardRow, 0, len(ns)*len(shardCounts))
	for _, n := range ns {
		for _, k := range shardCounts {
			row := ShardRow{N: n, Shards: k, Seeds: len(seeds)}
			start := time.Now()
			for _, seed := range seeds {
				ms, msgs, err := runShardCell(n, k, seed, &row)
				if err != nil {
					return nil, err
				}
				row.MsPerMod += ms / float64(len(seeds))
				row.MsgsPerTick += msgs / float64(len(seeds))
			}
			row.Wall = time.Since(start)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderShard formats the panel as a table.
func RenderShard(rows []ShardRow) string {
	var b strings.Builder
	b.WriteString("World sharding: BSYNC at fixed density (~48 cells/player), ")
	fmt.Fprintf(&b, "delta+%d-tick batching, DATA fanout bounded by shard residency\n", deltaPanelBatch)
	fmt.Fprintf(&b, "%5s %7s %6s %9s %9s %9s %9s\n",
		"n", "shards", "seeds", "ms/mod", "msg/tick", "vetoes", "wall")
	for _, r := range rows {
		fmt.Fprintf(&b, "%5d %7d %6d %9.2f %9.1f %9d %9s\n",
			r.N, r.Shards, r.Seeds, r.MsPerMod, r.MsgsPerTick, r.Vetoes,
			r.Wall.Round(time.Millisecond))
	}
	return b.String()
}
