package main

import (
	"fmt"
	"math"
	"os"
	"sort"
)

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives: the figure the driver holds against
// each metric's bound.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(q(3)-q(1), median(s))
}

// runSelfcheck runs every workload (or the one named) 2R times as two interleaved sets
// (A, B, A, B, ...; run i of either set plays seed+i) and holds the sets
// against each end-to-end metric's bound: the medians must agree within it
// and each set's quartile spread must stay inside it.
func runSelfcheck(only string, r int, seed int64, seconds float64) int {
	code := 0
	fmt.Printf("| workload | metric | median A | median B | diff | iqr A | iqr B | range A | range B | bound | |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloads(0) {
		if only != "all" && only != w.name {
			continue
		}
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
		}
		for i := 0; i < r; i++ {
			for s := range sets {
				res, err := runChild(w.name, seed+int64(i), seconds, 0)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				for name, v := range res.Metrics {
					sets[s][name] = append(sets[s][name], v.Value)
				}
			}
		}
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			diff := ratio(median(b)-median(a), median(a))
			span := func(v []float64) float64 { return ratio(quantile(v, 1)-quantile(v, 0), median(v)) }
			verdict := "ok"
			// setup_s answers only for its medians, as in the driver.
			wide := d.Name != "setup_s" && math.Max(quartileSpread(a), quartileSpread(b)) > d.Bound
			if math.Abs(diff) > d.Bound || wide {
				verdict = "FAIL"
				code = 1
			}
			fmt.Printf("| %s | %s | %.6g | %.6g | %+.4f | %.4f | %.4f | %.4f | %.4f | %.2f | %s |\n",
				w.name, d.Name, median(a), median(b), diff,
				quartileSpread(a), quartileSpread(b), span(a), span(b), d.Bound, verdict)
		}
	}
	return code
}
