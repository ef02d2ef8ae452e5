package harness

import (
	"reflect"
	"testing"
)

// sweepFingerprint renders every figure table plus the overhead breakdown,
// producing the byte string the paper-facing tooling ultimately consumes. A
// parallel sweep must reproduce it byte for byte.
func sweepFingerprint(sw *Sweep) string {
	s := sw.Table("fig5", "ms/mod", MetricNormalizedTime) +
		sw.Table("fig6", "msgs", MetricTotalMsgs) +
		sw.Table("fig7", "datamsgs", MetricDataMsgs) +
		sw.Table("fig8", "ovh", MetricOverheadPct)
	for _, n := range sw.Config.Ns {
		s += sw.OverheadBreakdown(n)
	}
	return s
}

func assertSweepsEqual(t *testing.T, seq, par *Sweep) {
	t.Helper()
	if a, b := sweepFingerprint(seq), sweepFingerprint(par); a != b {
		t.Errorf("parallel sweep tables diverge from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", a, b)
	}
	// Byte-equality of the rendered tables could mask a divergence that
	// rounds away; the full result structures must match too (metrics
	// maps, per-team stats, virtual durations — everything but the
	// Workers knob itself).
	if !reflect.DeepEqual(seq.Results, par.Results) {
		t.Error("parallel sweep Results structure differs from sequential")
	}
}

// TestRunSweepParallelMatchesSequential is the tentpole invariant: fanning
// the (protocol, n, seed) grid over a worker pool must assemble the exact
// Sweep the sequential path produced.
func TestRunSweepParallelMatchesSequential(t *testing.T) {
	sc := SweepConfig{Ns: []int{2, 4, 8}, Seeds: []int64{1, 2}, MaxTicks: 60}

	seqCfg := sc
	seqCfg.Workers = 1
	seq, err := RunSweep(seqCfg)
	if err != nil {
		t.Fatalf("sequential sweep: %v", err)
	}
	parCfg := sc
	parCfg.Workers = 8
	par, err := RunSweep(parCfg)
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}
	assertSweepsEqual(t, seq, par)

	// A panel with a grid of its own plays on the same pool.
	delta := deltaPanel([]int{16}, []int64{1, 2})
	seqT, err := delta.table(1)
	if err != nil {
		t.Fatalf("sequential delta panel: %v", err)
	}
	parT, err := delta.table(4)
	if err != nil {
		t.Fatalf("parallel delta panel: %v", err)
	}
	if seqT != parT {
		t.Errorf("parallel delta panel diverges from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", seqT, parT)
	}
}

// TestChaosGridParallelDeterminism reuses the CI chaos matrix's pinned
// seeds — values under which the scheduled crash provably fires — and runs
// the full crash-restart-rejoin experiment grid both sequentially and on a
// concurrent pool. Fault decisions, stats, and every recovery counter must
// replay identically (run under -race by the tier-1 suite).
func TestChaosGridParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs ten chaos experiments")
	}
	seeds := []int64{7, 13, 21, 33, 57}
	var cfgs []ChaosConfig
	for _, seed := range seeds {
		cfgs = append(cfgs, rejoinConfig(MSYNC2, seed), rejoinConfig(EC, seed))
	}
	seq, err := runAll(cfgs, 1, RunChaos)
	if err != nil {
		t.Fatalf("sequential chaos grid: %v", err)
	}
	par, err := runAll(cfgs, 4, RunChaos)
	if err != nil {
		t.Fatalf("parallel chaos grid: %v", err)
	}
	for i := range cfgs {
		if !seq[i].Crashed || !seq[i].Rejoined {
			t.Errorf("grid cell %d: crashed=%v rejoined=%v, want both", i, seq[i].Crashed, seq[i].Rejoined)
		}
		assertSameRun(t, seq[i], par[i])
	}
}
