package harness

// One panel engine: every sdso-bench table is a grid of games — row keys ×
// variants × seeds, one *Result a cell — played on the runAll pool and
// printed as a list of columns by one printer, tabulate.

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"sdso/internal/metrics"
)

// A column is one column of a table: its header, an optional second
// header line, its width (a negative width left-justifies) and its text
// for a row. A nil value prints nothing.
type column[R any] struct {
	head, head2 string
	width       int
	value       func(R) string
}

// tabulate prints title, the header line(s) and one line per row: every
// cell padded to its column's width, cells joined by sep, trailing blanks
// cut.
func tabulate[R any](title, sep string, cols []column[R], rows []R) string {
	var b strings.Builder
	b.WriteString(title + "\n")
	emit := func(text func(column[R]) string) {
		var l strings.Builder
		for i, c := range cols {
			if i > 0 {
				l.WriteString(sep)
			}
			fmt.Fprintf(&l, "%*s", c.width, text(c))
		}
		b.WriteString(strings.TrimRight(l.String(), " ") + "\n")
	}
	emit(func(c column[R]) string { return c.head })
	if slices.ContainsFunc(cols, func(c column[R]) bool { return c.head2 != "" }) {
		emit(func(c column[R]) string { return c.head2 })
	}
	for _, r := range rows {
		emit(func(c column[R]) string {
			if c.value == nil {
				return ""
			}
			return c.value(r)
		})
	}
	return b.String()
}

// A grid is the games behind a table: one cell per row key × variant ×
// seed, each cell one game.
type grid[K, V any] struct {
	name     string // error prefix
	keys     []K
	variants []V
	seeds    []int64
	cell     func(k K, v V, seed int64) (*Result, error)
}

// A line is one row key of a played grid and its games, games[variant][seed].
type line[K any] struct {
	key   K
	games [][]*Result
}

// play plays every cell on a pool of workers goroutines (see runAll) and
// returns one line per key. A cell that played no tick is an error: every
// per-tick column would divide by it.
func (g grid[K, V]) play(workers int) ([]line[K], error) {
	type at struct{ k, v, s int }
	var cells []at
	for k := range g.keys {
		for v := range g.variants {
			for s := range g.seeds {
				cells = append(cells, at{k, v, s})
			}
		}
	}
	res, err := runAll(cells, workers, func(c at) (*Result, error) {
		k, v, seed := g.keys[c.k], g.variants[c.v], g.seeds[c.s]
		r, err := g.cell(k, v, seed)
		if err == nil && total(ticks, r) == 0 {
			err = errors.New("no ticks played")
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %v %v seed=%d: %w", g.name, k, v, seed, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	nv, ns := len(g.variants), len(g.seeds)
	lines := make([]line[K], len(g.keys))
	for k := range lines {
		lines[k] = line[K]{key: g.keys[k], games: make([][]*Result, nv)}
		for v := range lines[k].games {
			i := (k*nv + v) * ns
			lines[k].games[v] = res[i : i+ns : i+ns]
		}
	}
	return lines, nil
}

// A gridPanel is a table over a grid of its own, one line per row key.
type gridPanel[K, V any] struct {
	title, sep string
	grid[K, V]
	cols []column[line[K]]
}

// table plays the panel's grid and prints it.
func (p gridPanel[K, V]) table(workers int) (string, error) {
	lines, err := p.play(workers)
	if err != nil {
		return "", err
	}
	return tabulate(p.title, p.sep, p.cols, lines), nil
}

// total sums f over every process of every game in rs, through
// metrics.Group.Sum: the one way a column reads a Snapshot counter.
func total(f func(metrics.Snapshot) int, rs ...*Result) int {
	n := 0
	for _, r := range rs {
		n += r.Metrics.Sum(f)
	}
	return n
}

func ticks(s metrics.Snapshot) int { return s.Ticks }

// perTick is f per process-tick of one game.
func perTick(f func(metrics.Snapshot) int) Metric {
	return func(r *Result) float64 { return float64(total(f, r)) / float64(total(ticks, r)) }
}

// mean averages m over games; no games average to zero.
func mean(games []*Result, m Metric) float64 {
	if len(games) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range games {
		sum += m(r)
	}
	return sum / float64(len(games))
}

// fixed prints v with prec decimals, as %.<prec>f does.
func fixed(v float64, prec int) string { return strconv.FormatFloat(v, 'f', prec, 64) }

// meanCol is a column of m averaged over variant v's seeds.
func meanCol[K any](head, head2 string, width, prec, v int, m Metric) column[line[K]] {
	return column[line[K]]{head, head2, width, func(l line[K]) string { return fixed(mean(l.games[v], m), prec) }}
}

// sumCol is a column of f summed over variant v's games and processes.
func sumCol[K any](head string, width, v int, f func(metrics.Snapshot) int) column[line[K]] {
	return column[line[K]]{head, "", width, func(l line[K]) string { return strconv.Itoa(total(f, l.games[v]...)) }}
}

// seedsCol is the seed count of a line.
func seedsCol[K any](width int) column[line[K]] {
	return column[line[K]]{"seeds", "", width, func(l line[K]) string { return strconv.Itoa(len(l.games[0])) }}
}

// intKey is a line's integer key.
func intKey(head string, width int) column[line[int]] {
	return column[line[int]]{head, "", width, func(l line[int]) string { return strconv.Itoa(l.key) }}
}

// Panel is one entry of the sdso-bench panel table.
type Panel struct {
	// Name is the panel's -fig name.
	Name string
	// Range is the tank range of the Figure sweep the panel reads; 0 for
	// a panel with a grid of its own.
	Range int
	// Play plays the panel's games and returns its table.
	Play func() (string, error)
}

// Panels is the sdso-bench panel table in print order: Figures 5-8 at
// range 1 and 5-7 at range 3, blocking, then the panels with grids of
// their own. sc gives every panel its seeds and workers, and the Figure
// sweeps their protocols and ticks; the panels of one range read one
// sweep, played once.
func Panels(sc SweepConfig) []Panel {
	sc = sc.withDefaults()
	seeds, workers := sc.Seeds, sc.Workers
	var ps []Panel
	sweeps := map[int]func() (*Sweep, error){}
	onSweep := func(name string, rng int, text func(*Sweep) string) Panel {
		return Panel{name, rng, func() (string, error) {
			sw, err := sweeps[rng]()
			if err != nil {
				return "", err
			}
			return text(sw), nil
		}}
	}
	for _, rng := range []int{1, 3} {
		rc := sc
		rc.Range = rng
		sweeps[rng] = sync.OnceValues(func() (*Sweep, error) { return RunSweep(rc) })
		for _, fig := range []string{"5", "6", "7", "8"} {
			if fig != "8" || rng == 1 {
				ps = append(ps, onSweep(fig, rng, func(sw *Sweep) string { return sw.Figure(fig) }))
			}
		}
	}
	return append(ps,
		onSweep("blocking", 1, (*Sweep).blocking),
		Panel{"datasize", 0, func() (string, error) { return dataSizePanel([]int{512, 2048, 8192, 32768}, seeds).table(workers) }},
		Panel{"quorum", 0, func() (string, error) { return quorumPanel(seeds).table(workers) }},
		Panel{"delta", 0, func() (string, error) { return deltaPanel([]int{16, 64, 128}, seeds).table(workers) }},
		Panel{"interest", 0, func() (string, error) { return interestPanel([]int{64, 128, 256}, seeds).table(workers) }},
		Panel{"shard", 0, func() (string, error) { return shardPanel([]int{64, 128, 256}, seeds).table(workers) }},
		// Real loopback sockets, not the simulator: its own runner.
		Panel{"resilience", 0, func() (string, error) {
			rows, err := ResilienceAnalysis(nil, nil)
			if err != nil {
				return "", err
			}
			return RenderResilience(rows), nil
		}},
	)
}
