// Interest-management benchmarks: the fixed-density scaling sweep behind
// BENCH_PR9.json. Each world grows with the player count (~48 cells per
// player, the default 32x24-at-16 density), so the sensing radius covers
// a constant-size neighborhood and the sweep isolates how exchange cost
// scales with population when DATA fanout is bounded by interest rather
// than membership. Regenerate the trajectory with
// `go run ./cmd/bench -suite interest`; the suite is separate from All()
// and Delta() so the PR4/PR8 baseline files stay byte-stable.
package benchsuite

import (
	"fmt"
	"testing"

	"sdso/internal/harness"
)

// Interest lists the interest-management suite in report order.
func Interest() []Bench {
	return []Bench{
		{"InterestFanout", InterestFanout},
	}
}

// interestCell plays one BSYNC game on the simulated cluster with delta
// encoding and tick batching on (the PR 8 configuration) and, per the
// flag, the spatial interest filter. It returns the Figure-5 normalized
// time in ms per modification, the wire messages per process-tick, and the
// run's metrics for the interest counters.
func interestCell(b testing.TB, n int, interest bool) (msPerMod, msgsPerTick float64, res *harness.Result) {
	b.Helper()
	cfg := harness.Config{
		Game:          harness.InterestWorld(n),
		Protocol:      harness.BSYNC,
		DeltaEncode:   true,
		MaxBatchTicks: deltaBatchTicks,
		Interest:      interest,
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
		b.Fatal("interest cell played no ticks")
	}
	return harness.MetricNormalizedTime(res), float64(res.Metrics.TotalMsgs()) / float64(ticks), res
}

// InterestFanout sweeps n ∈ {64, 128, 256} at fixed density and compares
// the PR 8 delta+batch exchange (full-membership fanout) against the same
// configuration with the interest filter on. Reported series: ms per
// modification, messages per process-tick, the speedup, and the interest
// counters (peak set size, churn, enter-radius fetches).
func InterestFanout(b *testing.B) {
	b.ReportAllocs()
	ns := []int{64, 128, 256}
	type cell struct {
		offMs, onMs           float64
		offMsgs, onMsgs       float64
		setPeak, churn, fetch int
	}
	cells := make([]cell, len(ns))
	for i := 0; i < b.N; i++ {
		for k, n := range ns {
			offMs, offMsgs, _ := interestCell(b, n, false)
			onMs, onMsgs, res := interestCell(b, n, true)
			cells[k] = cell{
				offMs: offMs, onMs: onMs,
				offMsgs: offMsgs, onMsgs: onMsgs,
				setPeak: res.Metrics.InterestSetPeak(),
				churn:   res.Metrics.InterestChurn(),
				fetch:   res.Metrics.InterestFetches(),
			}
		}
	}
	for k, n := range ns {
		c := cells[k]
		b.ReportMetric(c.offMs, fmt.Sprintf("n%d_msmod_plain", n))
		b.ReportMetric(c.onMs, fmt.Sprintf("n%d_msmod_interest", n))
		b.ReportMetric(c.offMsgs, fmt.Sprintf("n%d_msgs_per_tick_plain", n))
		b.ReportMetric(c.onMsgs, fmt.Sprintf("n%d_msgs_per_tick_interest", n))
		if c.onMs > 0 {
			b.ReportMetric(c.offMs/c.onMs, fmt.Sprintf("n%d_msmod_speedup", n))
		}
		b.ReportMetric(float64(c.setPeak), fmt.Sprintf("n%d_interest_set_peak", n))
		b.ReportMetric(float64(c.churn), fmt.Sprintf("n%d_interest_churn", n))
		b.ReportMetric(float64(c.fetch), fmt.Sprintf("n%d_interest_fetches", n))
	}
}
