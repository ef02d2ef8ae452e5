package harness

// The delta-exchange panel (sdso-bench -fig delta): wire bytes per
// exchange slot and Figure-5 normalized time with the delta-capable
// record encoding and tick batching off versus on, swept across process
// counts the paper never reached. Runs on the simulated cluster, like
// Figures 5-8, so the off side of every cell is the exact machinery
// behind the paper figures.

import (
	"fmt"
	"strings"
	"time"

	"sdso/internal/game"
)

// deltaPanelBatch is the batching factor the panel's "on" cells run
// with; it matches the checked oracle matrix.
const deltaPanelBatch = 4

// deltaPanelTicks fixes the game length so bytes divide by an identical
// exchange-slot count on both sides of each cell.
const deltaPanelTicks = 60

// DeltaRow is one process-count cell of the delta panel, averaged over
// the seeds.
type DeltaRow struct {
	N     int
	Seeds int
	// PlainBytesPerX / DeltaBytesPerX are wire bytes per exchange slot
	// (one slot = one process-tick) with the encoding off / on.
	PlainBytesPerX, DeltaBytesPerX float64
	// PlainEnvelope / DeltaEnvelope are the share of those bytes that is
	// not Msg.Payload: 1 - PayloadBytes/BytesSent (header and Ints).
	PlainEnvelope, DeltaEnvelope float64
	// PlainMsPerMod / DeltaMsPerMod are the Figure-5 normalized times.
	PlainMsPerMod, DeltaMsPerMod float64
	// DeltaRecords, DeltaBytesSaved, and TicksBatched sum the delta
	// runs' protocol counters across seeds; Mismatches must stay zero
	// on the fault-free simulated cluster.
	DeltaRecords, DeltaBytesSaved, TicksBatched, Mismatches int
	Wall                                                    time.Duration
}

// SavedPct is the panel's headline: the percentage of wire bytes per
// exchange slot the delta side saves over the plain side.
func (r DeltaRow) SavedPct() float64 {
	if r.PlainBytesPerX <= 0 {
		return 0
	}
	return (1 - r.DeltaBytesPerX/r.PlainBytesPerX) * 100
}

// runDeltaCell plays one BSYNC game and returns its wire bytes per
// exchange slot, their envelope share and normalized time, folding the
// delta counters into row when the encoding is on.
func runDeltaCell(n int, seed int64, on bool, row *DeltaRow) (bytesPerX, envelope, msPerMod float64, err error) {
	g := game.DefaultConfig(n, 1)
	g.MaxTicks = deltaPanelTicks
	g.Seed = seed
	cfg := Config{Game: g, Protocol: BSYNC}
	if on {
		cfg.DeltaEncode = true
		cfg.MaxBatchTicks = deltaPanelBatch
	}
	res, err := Run(cfg)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("delta panel n=%d seed=%d delta=%v: %w", n, seed, on, err)
	}
	bytes, ticks := 0, 0
	for _, s := range res.Metrics.Procs {
		bytes += s.BytesSent
		ticks += s.Ticks
	}
	if ticks == 0 {
		return 0, 0, 0, fmt.Errorf("delta panel n=%d seed=%d delta=%v: no ticks played", n, seed, on)
	}
	if on {
		row.DeltaRecords += res.Metrics.DeltaRecords()
		row.DeltaBytesSaved += res.Metrics.DeltaBytesSaved()
		row.TicksBatched += res.Metrics.TicksBatched()
		row.Mismatches += res.Metrics.DeltaMismatches()
	}
	envelope = 1 - float64(res.Metrics.PayloadBytes())/float64(bytes)
	return float64(bytes) / float64(ticks), envelope, MetricNormalizedTime(res), nil
}

// DeltaAnalysis runs the delta panel. Ns defaults to {16, 64, 128} and
// seeds to {1, 2, 3}.
func DeltaAnalysis(ns []int, seeds []int64) ([]DeltaRow, error) {
	if len(ns) == 0 {
		ns = []int{16, 64, 128}
	}
	if len(seeds) == 0 {
		seeds = []int64{1, 2, 3}
	}
	rows := make([]DeltaRow, 0, len(ns))
	for _, n := range ns {
		row := DeltaRow{N: n, Seeds: len(seeds)}
		start := time.Now()
		for _, seed := range seeds {
			offB, offEnv, offMs, err := runDeltaCell(n, seed, false, &row)
			if err != nil {
				return nil, err
			}
			onB, onEnv, onMs, err := runDeltaCell(n, seed, true, &row)
			if err != nil {
				return nil, err
			}
			row.PlainBytesPerX += offB / float64(len(seeds))
			row.DeltaBytesPerX += onB / float64(len(seeds))
			row.PlainEnvelope += offEnv / float64(len(seeds))
			row.DeltaEnvelope += onEnv / float64(len(seeds))
			row.PlainMsPerMod += offMs / float64(len(seeds))
			row.DeltaMsPerMod += onMs / float64(len(seeds))
		}
		row.Wall = time.Since(start)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderDelta formats the panel as a table.
func RenderDelta(rows []DeltaRow) string {
	var b strings.Builder
	b.WriteString("Delta exchange: BSYNC wire bytes per exchange slot and normalized time, ")
	fmt.Fprintf(&b, "plain vs delta-encoded + %d-tick batching\n", deltaPanelBatch)
	fmt.Fprintf(&b, "%5s %6s %9s %9s %7s %8s %8s %9s %9s %8s %11s %9s %6s %9s\n",
		"n", "seeds", "B/x", "B/x", "saved", "envelope", "envelope", "ms/mod", "ms/mod", "drecs", "dsaved-B", "batched", "miss", "wall")
	fmt.Fprintf(&b, "%5s %6s %9s %9s %7s %8s %8s %9s %9s %8s %11s %9s %6s %9s\n",
		"", "", "plain", "delta", "", "plain", "delta", "plain", "delta", "", "", "", "", "")
	for _, r := range rows {
		fmt.Fprintf(&b, "%5d %6d %9.1f %9.1f %6.1f%% %8.2f %8.2f %9.2f %9.2f %8d %11d %9d %6d %9s\n",
			r.N, r.Seeds, r.PlainBytesPerX, r.DeltaBytesPerX, r.SavedPct(),
			r.PlainEnvelope, r.DeltaEnvelope,
			r.PlainMsPerMod, r.DeltaMsPerMod,
			r.DeltaRecords, r.DeltaBytesSaved, r.TicksBatched, r.Mismatches,
			r.Wall.Round(time.Millisecond))
	}
	return b.String()
}
