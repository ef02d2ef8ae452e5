package harness

import (
	"strconv"
	"time"

	"sdso/internal/game"
	"sdso/internal/metrics"
)

// The paper's §4 closes with two announced-but-unreported analyses: "(1) an
// analysis of the blocking overhead of lock-based protocols such as entry
// consistency, versus the overheads of multicast synchronization in generic
// lookahead schemes, and (2) the effects of different data sizes." Both are
// implemented here.

// blocking renders future-work item 1 over the range-1 Figure sweep: per
// protocol and process count, the virtual time a process spent blocked per
// tick on locks and object pulls (the lock-based protocols' blocking) and
// inside exchange rendezvous (the lookahead protocols' multicast
// synchronization).
func (sw *Sweep) blocking() string {
	type cell struct {
		p Protocol
		n int
	}
	var rows []cell
	for _, p := range sw.Config.Protocols {
		for _, n := range sw.Config.Ns {
			rows = append(rows, cell{p, n})
		}
	}
	wait := func(cats ...metrics.Category) func(cell) string {
		return func(c cell) string { return sw.blockedPerTick(c.p, c.n, cats...).Round(10 * time.Microsecond).String() }
	}
	return tabulate("Blocking analysis (paper §4 future-work 1): avg blocked time per tick", " ", []column[cell]{
		{head: "proto", width: 8, value: func(c cell) string { return string(c.p) }},
		{head: "procs", width: 6, value: func(c cell) string { return strconv.Itoa(c.n) }},
		{head: "lock-wait/tick", width: 18, value: wait(metrics.CatLockAcquire, metrics.CatObjPull)},
		{head: "exchange-wait/tick", width: 18, value: wait(metrics.CatExchange)},
	}, rows)
}

// blockedPerTick is the virtual time the (p, n) games spent in cats per
// process-tick, over every seed.
func (sw *Sweep) blockedPerTick(p Protocol, n int, cats ...metrics.Category) time.Duration {
	rs := sw.Results[p][n]
	blocked := total(func(s metrics.Snapshot) int {
		d := time.Duration(0)
		for _, c := range cats {
			d += s.Durations[c]
		}
		return int(d)
	}, rs...)
	return time.Duration(blocked) / time.Duration(total(ticks, rs...))
}

// dataSizePanel measures the effect of message size on each protocol at 8
// processes (future-work item 2: "it is interesting to understand the
// effect of changes in the resolution of shared objects, where either more
// or less data is transferred in each data message"). The lookahead
// protocols push many data messages, so they gain the most from small
// objects and pay the most for sensor-image-sized ones; EC's lock traffic
// is size-insensitive in count but every control message grows too.
func dataSizePanel(sizes []int, seeds []int64) gridPanel[int, Protocol] {
	cols := []column[line[int]]{intKey("msg bytes", 10)}
	for v, p := range PaperProtocols {
		cols = append(cols, meanCol[int](string(p), "", 12, 2, v, MetricNormalizedTime))
	}
	return gridPanel[int, Protocol]{
		title: "Data-size sweep (paper §4 future-work 2) at 8 processes: ms per modification",
		grid: grid[int, Protocol]{
			name: "datasize", keys: sizes, variants: PaperProtocols, seeds: seeds,
			cell: func(size int, p Protocol, seed int64) (*Result, error) {
				g := game.DefaultConfig(8, 1)
				g.Seed = seed
				g.MaxTicks = 200
				g.EndOnFirstGoal = true
				return Run(Config{Game: g, Protocol: p, MsgSize: size})
			},
		},
		cols: cols,
	}
}
