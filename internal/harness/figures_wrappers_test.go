package harness

import (
	"testing"

	"sdso/internal/metrics"
)

// TestFigureWrappers drives the one-call-per-figure conveniences end to end:
// each must render its sweep through Sweep.Figure, and the sweep's values
// must be the ones the figure plots.
func TestFigureWrappers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four full sweeps")
	}
	for _, w := range []struct {
		fig string
		rng int
		run func() (*Sweep, string, error)
	}{
		{"5", 1, func() (*Sweep, string, error) { return Figure5(1) }},
		{"6", 3, func() (*Sweep, string, error) { return Figure6(3) }},
		{"7", 1, func() (*Sweep, string, error) { return Figure7(1) }},
		{"8", 1, Figure8},
	} {
		sw, table, err := w.run()
		if err != nil {
			t.Fatal(err)
		}
		if sw.Config.Range != w.rng || table != sw.Figure(w.fig) {
			t.Errorf("Figure%s: range %d, table not the sweep's Figure(%q):\n%s", w.fig, sw.Config.Range, w.fig, table)
		}
		for _, p := range PaperProtocols {
			series := sw.Series(p, MetricNormalizedTime)
			if len(series) != len(PaperNs) {
				t.Errorf("Figure%s %s: series length = %d", w.fig, p, len(series))
			}
			for i, v := range series {
				if v <= 0 {
					t.Errorf("Figure%s %s: series[%d] = %f", w.fig, p, i, v)
				}
			}
		}
		if w.fig == "8" {
			if lock := sw.CategoryPct(EC, 16, metrics.CatLockAcquire); lock <= 0 {
				t.Errorf("Figure8: EC lock-acquire share %.1f%%", lock)
			}
		}
	}
}
