package faultnet

import (
	"fmt"
	"sort"
	"strings"
)

// Describe renders the plan as a compact one-line summary for failure
// reports: the schedule explorer prints it next to the shrunk seed so a
// failing (seed, plan) pair can be re-run from the log alone.
func (pl Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", pl.Seed)
	if f := pl.Default; f != (LinkFaults{}) {
		fmt.Fprintf(&b, " drop=%g dup=%g delay=%g/%d", f.DropProb, f.DupProb, f.DelayProb, f.DelaySends)
	}
	if len(pl.Links) > 0 {
		fmt.Fprintf(&b, " link-overrides=%d", len(pl.Links))
	}
	for _, p := range pl.Partitions {
		fmt.Fprintf(&b, " cut=%d-%d", p[0], p[1])
	}
	for _, p := range pl.OneWay {
		fmt.Fprintf(&b, " cut=%d->%d", p[0], p[1])
	}
	if len(pl.Heals) > 0 {
		fmt.Fprintf(&b, " heals=%d", len(pl.Heals))
	}
	if len(pl.Crashes) > 0 {
		procs := make([]int, 0, len(pl.Crashes))
		for p := range pl.Crashes {
			procs = append(procs, p)
		}
		sort.Ints(procs)
		for _, p := range procs {
			c := pl.Crashes[p]
			if c.AtTick > 0 {
				fmt.Fprintf(&b, " crash=%d@tick%d", p, c.AtTick)
			} else {
				fmt.Fprintf(&b, " crash=%d@%v", p, c.At)
			}
			if c.RestartAfter > 0 {
				fmt.Fprintf(&b, "+%v", c.RestartAfter)
			}
		}
	}
	return b.String()
}
