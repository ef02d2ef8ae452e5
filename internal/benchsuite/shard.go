// World-sharding benchmarks: the sweep behind BENCH_PR10.json. The
// fanout sweep replays the fixed-density interest worlds with the DATA
// fanout bounded by shard residency instead of the sensing-radius
// filter, so the shards=1 column is the unsharded baseline and the
// headline claim — sharded msgs/tick at n=256/16 shards below unsharded
// n=256 — falls straight out of the series. Regenerate with
// `go run ./cmd/bench -suite shard`.
package benchsuite

import (
	"fmt"
	"testing"

	"sdso/internal/harness"
)

// Shard lists the world-sharding suite in report order.
func Shard() []Bench {
	return []Bench{
		{"ShardFanout", ShardFanout},
	}
}

// shardCell plays one BSYNC game on the fixed-density world with delta
// encoding and tick batching on (the PR 8 configuration) and the given
// shard count bounding the DATA fanout.
func shardCell(b testing.TB, n, shards int) (msPerMod, msgsPerTick float64, vetoes int) {
	b.Helper()
	cfg := harness.Config{
		Game:          harness.ShardWorld(n),
		Protocol:      harness.BSYNC,
		DeltaEncode:   true,
		MaxBatchTicks: deltaBatchTicks,
		Shards:        shards,
	}
	res, err := harness.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ticks := 0
	for _, s := range res.Metrics.Procs {
		ticks += s.Ticks
	}
	if ticks == 0 {
		b.Fatal("shard cell played no ticks")
	}
	return harness.MetricNormalizedTime(res), float64(res.Metrics.TotalMsgs()) / float64(ticks),
		res.Metrics.ShardVetoes()
}

// ShardFanout sweeps n ∈ {64, 128, 256} × shards ∈ {1, 4, 16} at fixed
// density. Reported series per cell: ms per modification, messages per
// process-tick, and residency vetoes.
func ShardFanout(b *testing.B) {
	b.ReportAllocs()
	ns := []int{64, 128, 256}
	counts := []int{1, 4, 16}
	type cell struct {
		ms, msgs float64
		vetoes   int
	}
	cells := make([]cell, len(ns)*len(counts))
	for i := 0; i < b.N; i++ {
		for j, n := range ns {
			for k, shards := range counts {
				ms, msgs, vetoes := shardCell(b, n, shards)
				cells[j*len(counts)+k] = cell{ms: ms, msgs: msgs, vetoes: vetoes}
			}
		}
	}
	for j, n := range ns {
		for k, shards := range counts {
			c := cells[j*len(counts)+k]
			b.ReportMetric(c.ms, fmt.Sprintf("n%d_s%d_msmod", n, shards))
			b.ReportMetric(c.msgs, fmt.Sprintf("n%d_s%d_msgs_per_tick", n, shards))
			b.ReportMetric(float64(c.vetoes), fmt.Sprintf("n%d_s%d_shard_vetoes", n, shards))
		}
	}
}
