package harness

import (
	"slices"
	"testing"
	"time"

	"sdso/internal/metrics"
)

// TestBlockingAnalysisShapes: the §4 future-work hypothesis the paper
// states — "entry consistent processes are spending far greater amounts of
// time in blocked modes, while waiting for locks" whereas a lookahead
// scheme "is able to [send more data] with far less blocking overhead".
func TestBlockingAnalysisShapes(t *testing.T) {
	sw, err := RunSweep(SweepConfig{Ns: []int{8, 16}, Seeds: []int64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	lock := func(p Protocol, n int) time.Duration {
		return sw.blockedPerTick(p, n, metrics.CatLockAcquire, metrics.CatObjPull)
	}
	exch := func(p Protocol, n int) time.Duration { return sw.blockedPerTick(p, n, metrics.CatExchange) }
	for _, n := range []int{8, 16} {
		// EC blocks on locks, not exchanges; lookahead the reverse.
		if lock(EC, n) == 0 || exch(EC, n) != 0 {
			t.Errorf("n=%d: EC blocking profile inverted: lock %v exchange %v", n, lock(EC, n), exch(EC, n))
		}
		if exch(MSYNC2, n) == 0 || lock(MSYNC2, n) != 0 {
			t.Errorf("n=%d: MSYNC2 blocking profile inverted: lock %v exchange %v", n, lock(MSYNC2, n), exch(MSYNC2, n))
		}
		// The paper's hypothesis: EC's per-tick blocking exceeds
		// MSYNC2's multicast-synchronization cost.
		if lock(EC, n) <= exch(MSYNC2, n) {
			t.Errorf("n=%d: EC lock wait (%v) not above MSYNC2 exchange wait (%v)", n, lock(EC, n), exch(MSYNC2, n))
		}
	}
}

// TestDataSizeSweepShapes: larger messages hurt the message-heavy lookahead
// protocols more than the message-light EC — the paper predicted data size
// would matter most "when sensor images of enemy tanks are employed".
func TestDataSizeSweepShapes(t *testing.T) {
	lines, err := dataSizePanel([]int{512, 16384}, []int64{1, 2}).play(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	cost := func(size, v int) float64 { return mean(lines[size].games[v], MetricNormalizedTime) }
	for v, p := range PaperProtocols {
		if small, large := cost(0, v), cost(1, v); large <= small {
			t.Errorf("%s: larger messages did not cost more (%.2f vs %.2f)", p, large, small)
		}
	}
	// BSYNC sends the most messages, so its size sensitivity (cost ratio
	// large/small) must exceed EC's.
	bsync, ec := slices.Index(PaperProtocols, BSYNC), slices.Index(PaperProtocols, EC)
	bsyncRatio := cost(1, bsync) / cost(0, bsync)
	ecRatio := cost(1, ec) / cost(0, ec)
	if bsyncRatio <= ecRatio {
		t.Errorf("BSYNC size sensitivity (%.2fx) not above EC's (%.2fx)", bsyncRatio, ecRatio)
	}
}
