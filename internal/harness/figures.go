package harness

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/netmodel"
	"sdso/internal/shard"
)

// PaperNs are the process counts on the paper's x-axes.
var PaperNs = []int{2, 4, 8, 16}

// SweepConfig describes a sweep over process counts for a set of protocols
// — the shape of every figure in the paper's evaluation.
type SweepConfig struct {
	// Protocols to run; defaults to the paper's four.
	Protocols []Protocol
	// Ns are the process counts; defaults to PaperNs.
	Ns []int
	// Range is the tank visibility range (1 for the left-hand figures,
	// 3 for the right-hand ones).
	Range int
	// Seeds are the placement seeds; the reported metrics average over
	// them (the paper fixes one seed and normalizes instead; averaging
	// smooths the same game-randomness effects). Defaults to {1, 2, 3}.
	Seeds []int64
	// MaxTicks bounds each game; defaults to 200.
	MaxTicks int
	// Net overrides the simulated cluster network for every cell; the
	// zero value keeps the paper's 10 Mbps Ethernet model. Lossy sweeps
	// set DropProb/DropSeed here — each cell still derives every drop
	// decision deterministically from its own seed and link state, so
	// sweeps stay reproducible under any worker count.
	Net netmodel.Params
	// SuspectTimeout is handed to every cell (see Config.SuspectTimeout);
	// required when Net is lossy.
	SuspectTimeout time.Duration
	// Workers bounds how many (protocol, n, seed) cells run concurrently.
	// Zero means GOMAXPROCS; 1 reproduces the historical sequential
	// execution exactly. Every cell is an independent vtime simulation,
	// so the assembled Sweep is identical for any worker count.
	Workers int
	// Shards partitions every cell's world into this many regions and
	// intersects the DATA fanout with shard residency (see
	// Config.Shards); only the lookahead protocols honor it. Zero or one
	// means unsharded — byte-identical to the flat sweep.
	Shards int
}

// SweepConfigError is the typed error RunSweep returns for a sweep that
// could never run: a process count the world cannot place, an unknown
// protocol, a shard count the partition rejects. It is returned up
// front, before any cell is dispatched to the worker pool — historically
// a bad process count (e.g. a negative n) panicked deep inside a worker
// goroutine instead.
type SweepConfigError struct {
	Field  string // the SweepConfig field at fault
	Reason string
}

func (e *SweepConfigError) Error() string {
	return fmt.Sprintf("harness: sweep config: %s: %s", e.Field, e.Reason)
}

// Validate checks the sweep (with defaults applied) names a runnable
// grid, returning a *SweepConfigError describing the first problem.
// RunSweep calls it before dispatching any cell.
func (sc SweepConfig) Validate() error {
	sc = sc.withDefaults()
	for _, p := range sc.Protocols {
		switch p {
		case BSYNC, MSYNC, MSYNC2, EC, LRC, Causal, Central:
		default:
			return &SweepConfigError{Field: "Protocols", Reason: fmt.Sprintf("unknown protocol %q", p)}
		}
	}
	if sc.Workers < 0 {
		return &SweepConfigError{Field: "Workers", Reason: fmt.Sprintf("negative worker count %d", sc.Workers)}
	}
	for _, n := range sc.Ns {
		g := game.DefaultConfig(n, sc.Range)
		g.MaxTicks = sc.MaxTicks
		if err := g.Validate(); err != nil {
			return &SweepConfigError{Field: "Ns", Reason: fmt.Sprintf("n=%d: %v", n, err)}
		}
		if sc.Shards > 1 {
			if err := shard.Validate(g.Width, g.Height, sc.Shards); err != nil {
				return &SweepConfigError{Field: "Shards", Reason: err.Error()}
			}
		}
	}
	return nil
}

func (sc SweepConfig) withDefaults() SweepConfig {
	if len(sc.Protocols) == 0 {
		sc.Protocols = append([]Protocol(nil), PaperProtocols...)
	}
	if len(sc.Ns) == 0 {
		sc.Ns = append([]int(nil), PaperNs...)
	}
	if len(sc.Seeds) == 0 {
		sc.Seeds = []int64{1, 2, 3}
	}
	if sc.MaxTicks == 0 {
		sc.MaxTicks = 200
	}
	if sc.Range == 0 {
		sc.Range = 1
	}
	return sc
}

// Sweep holds the results of one sweep: Results[protocol][n] has one
// result per seed.
type Sweep struct {
	Config  SweepConfig
	Results map[Protocol]map[int][]*Result
}

// RunSweep executes every (protocol, n, seed) experiment of the sweep.
//
// Cells run concurrently on a pool of SweepConfig.Workers goroutines
// (default GOMAXPROCS). Each cell is a self-contained vtime simulation —
// deterministic per seed, sharing no state with its neighbours — so the
// assembled Sweep is identical to a sequential (Workers=1) execution;
// TestRunSweepParallelMatchesSequential asserts byte-equality. On error the
// first failing cell in grid order is reported.
func RunSweep(sc SweepConfig) (*Sweep, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sc = sc.withDefaults()
	lines, err := grid[int, Protocol]{
		name:     fmt.Sprintf("sweep range=%d", sc.Range),
		keys:     sc.Ns,
		variants: sc.Protocols,
		seeds:    sc.Seeds,
		cell: func(n int, p Protocol, seed int64) (*Result, error) {
			g := game.DefaultConfig(n, sc.Range)
			g.Seed = seed
			g.MaxTicks = sc.MaxTicks
			g.EndOnFirstGoal = true // the paper's race semantics
			return Run(Config{Game: g, Protocol: p, Net: sc.Net, SuspectTimeout: sc.SuspectTimeout, Shards: sc.Shards})
		},
	}.play(sc.Workers)
	if err != nil {
		return nil, err
	}
	sw := &Sweep{Config: sc, Results: make(map[Protocol]map[int][]*Result)}
	for v, p := range sc.Protocols {
		sw.Results[p] = make(map[int][]*Result)
		for _, l := range lines {
			sw.Results[p][l.key] = l.games[v]
		}
	}
	return sw, nil
}

// Metric extracts one figure's series from a result.
type Metric func(*Result) float64

// Figure metrics.
var (
	// MetricNormalizedTime is Figure 5: average execution time per
	// process normalized by the average number of object modifications,
	// in milliseconds.
	MetricNormalizedTime Metric = func(r *Result) float64 {
		return float64(r.Metrics.NormalizedExecTime()) / float64(time.Millisecond)
	}
	// MetricTotalMsgs is Figure 6: total message transfers (control +
	// data) as the paper counts them: a SYNC or DONE marker riding a data
	// frame is a message of its own (metrics.Snapshot.LogicalMsgs).
	MetricTotalMsgs Metric = func(r *Result) float64 { return float64(r.Metrics.LogicalMsgs()) }
	// MetricFrames is what those messages cost on the wire: frames sent.
	MetricFrames Metric = func(r *Result) float64 { return float64(r.Metrics.TotalMsgs()) }
	// MetricDataMsgs is Figure 7: data messages only.
	MetricDataMsgs Metric = func(r *Result) float64 { return float64(r.Metrics.DataMsgs()) }
	// MetricControlMsgs separates the lock/SYNC traffic discussed with
	// Figure 6, riding markers included.
	MetricControlMsgs Metric = func(r *Result) float64 { return MetricTotalMsgs(r) - MetricDataMsgs(r) }
	// MetricOverheadPct is Figure 8: protocol overhead as a percentage of
	// per-process execution time.
	MetricOverheadPct Metric = func(r *Result) float64 { return r.Metrics.AvgOverheadPct() }
)

// Series returns seed-averaged metric values for one protocol across the
// sweep's Ns.
func (sw *Sweep) Series(p Protocol, m Metric) []float64 {
	out := make([]float64, 0, len(sw.Config.Ns))
	for _, n := range sw.Config.Ns {
		out = append(out, sw.Value(p, n, m))
	}
	return out
}

// Value returns one metric for one (protocol, n) cell, averaged over the
// sweep's seeds.
func (sw *Sweep) Value(p Protocol, n int, m Metric) float64 { return mean(sw.Results[p][n], m) }

// Table renders a figure's data as the paper-style rows (one per process
// count, one column per protocol).
func (sw *Sweep) Table(title, unit string, m Metric) string {
	cols := []column[int]{{head: "procs", width: 8, value: strconv.Itoa}}
	for _, p := range sw.Config.Protocols {
		cols = append(cols, column[int]{head: string(p), width: 12, value: func(n int) string { return fixed(sw.Value(p, n, m), 2) }})
	}
	cols = append(cols, column[int]{head: "    (" + unit + ")"})
	return tabulate(title, "", cols, sw.Config.Ns)
}

// CategoryPct averages the share of execution time spent in a category for
// one (protocol, n) cell across seeds.
func (sw *Sweep) CategoryPct(p Protocol, n int, cat metrics.Category) float64 {
	return mean(sw.Results[p][n], func(r *Result) float64 { return r.Metrics.AvgCategoryPct(cat) })
}

// OverheadBreakdown renders Figure 8's stacked components for one process
// count: per-protocol percentages of execution time by category.
func (sw *Sweep) OverheadBreakdown(n int) string {
	cols := []column[Protocol]{{width: 8, value: func(p Protocol) string { return string(p) }}}
	for _, c := range metrics.Categories() {
		cols = append(cols, column[Protocol]{head: c.String(), width: 14, value: func(p Protocol) string { return fixed(sw.CategoryPct(p, n, c), 1) }})
	}
	cols = append(cols, column[Protocol]{head: "total-ovh", width: 14, value: func(p Protocol) string { return fixed(sw.Value(p, n, MetricOverheadPct), 1) }})
	var rows []Protocol
	for _, p := range sw.Config.Protocols {
		if _, ok := sw.Results[p][n]; ok {
			rows = append(rows, p)
		}
	}
	return tabulate(fmt.Sprintf("Protocol overhead breakdown at %d processes (%% of execution time)", n), "", cols, rows)
}

// Figure renders the paper's Figure fig ("5", "6", "7" or "8") from the
// sweep at its range; Figure 8 adds the overhead breakdown at the largest
// process count. Any other fig renders nothing.
func (sw *Sweep) Figure(fig string) string {
	r := sw.Config.Range
	switch fig {
	case "5":
		return sw.Table(fmt.Sprintf("Figure 5 (range %d): avg execution time per process / avg object modifications", r), "ms per modification", MetricNormalizedTime)
	case "6":
		return sw.Table(fmt.Sprintf("Figure 6 (range %d): total message transfers (control + data)", r), "messages", MetricTotalMsgs) + "\n" +
			sw.Table(fmt.Sprintf("Figure 6 (range %d), on the wire: frames sent", r), "frames", MetricFrames)
	case "7":
		return sw.Table(fmt.Sprintf("Figure 7 (range %d): data message transfers", r), "data messages", MetricDataMsgs)
	case "8":
		return sw.Table(fmt.Sprintf("Figure 8: protocol overhead as %% of execution time (range %d)", r), "% of execution time", MetricOverheadPct) + "\n" +
			sw.OverheadBreakdown(slices.Max(sw.Config.Ns))
	}
	return ""
}

// figure runs the default sweep at a range and renders Figure fig.
func figure(fig string, rng int) (*Sweep, string, error) {
	sw, err := RunSweep(SweepConfig{Range: rng})
	if err != nil {
		return nil, "", err
	}
	return sw, sw.Figure(fig), nil
}

// Figure5 reproduces the paper's Figure 5 panel for a range.
func Figure5(rng int) (*Sweep, string, error) { return figure("5", rng) }

// Figure6 reproduces the paper's Figure 6 panel for a range.
func Figure6(rng int) (*Sweep, string, error) { return figure("6", rng) }

// Figure7 reproduces the paper's Figure 7 panel for a range.
func Figure7(rng int) (*Sweep, string, error) { return figure("7", rng) }

// Figure8 reproduces the paper's Figure 8 (overheads, range 1).
func Figure8() (*Sweep, string, error) { return figure("8", 1) }
