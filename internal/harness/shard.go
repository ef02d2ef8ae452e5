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
	"strconv"

	"sdso/internal/metrics"
)

// shardKey is one row of the shard panel: a process count and a shard
// count; one shard is the unsharded baseline.
type shardKey struct{ n, shards int }

// shardPanel plays one BSYNC game per n, shard count in {1, 4, 16} and
// seed, with delta encoding and batching on (the PR 8 configuration);
// "vetoes" counts the DATA flushes the residency intersection withheld.
func shardPanel(ns []int, seeds []int64) gridPanel[shardKey, Protocol] {
	var keys []shardKey
	for _, n := range ns {
		for _, k := range []int{1, 4, 16} {
			keys = append(keys, shardKey{n, k})
		}
	}
	return gridPanel[shardKey, Protocol]{
		title: "World sharding: BSYNC at fixed density (~48 cells/player), " +
			fmt.Sprintf("delta+%d-tick batching, DATA fanout bounded by shard residency", deltaPanelBatch),
		sep: " ",
		grid: grid[shardKey, Protocol]{
			name: "shard panel", keys: keys, variants: []Protocol{BSYNC}, seeds: seeds,
			cell: func(k shardKey, p Protocol, seed int64) (*Result, error) {
				g := InterestWorld(k.n)
				g.Seed = seed
				return Run(Config{Game: g, Protocol: p, DeltaEncode: true, MaxBatchTicks: deltaPanelBatch, Shards: k.shards})
			},
		},
		cols: []column[line[shardKey]]{
			{"n", "", 5, func(l line[shardKey]) string { return strconv.Itoa(l.key.n) }},
			{"shards", "", 7, func(l line[shardKey]) string { return strconv.Itoa(l.key.shards) }},
			seedsCol[shardKey](6),
			meanCol[shardKey]("ms/mod", "", 9, 2, 0, MetricNormalizedTime),
			meanCol[shardKey]("msg/tick", "", 9, 1, 0, msgsPerTick),
			sumCol[shardKey]("vetoes", 9, 0, func(s metrics.Snapshot) int { return s.ShardVetoes }),
		},
	}
}
