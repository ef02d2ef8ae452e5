package harness

import (
	"testing"

	"sdso/internal/game"
)

// TestDeltaSweep64MatchesReference is the cluster-scale smoke for the
// delta path: a 64-process BSYNC game with delta encoding on must
// produce exactly the outcome of the lockstep reference simulation —
// and so must the identical game with the encoding off — pinning that
// the wire-format change is invisible to the application at a scale
// the paper never ran. Tick batching is deliberately excluded from the
// identity check: batching trades staleness for bandwidth (replicas
// trail up to MaxBatchTicks-1 ticks), so a batched game legitimately
// steers differently; its guarantee is oracle consistency, asserted by
// TestRunCheckedDeltaBatched, and here it must merely complete the
// sweep. CI runs this under the race detector.
func TestDeltaSweep64MatchesReference(t *testing.T) {
	g := game.DefaultConfig(64, 1)
	g.MaxTicks = 30
	ref, err := game.RunReference(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, on := range []bool{false, true} {
		res, err := Run(Config{Game: g, Protocol: BSYNC, DeltaEncode: on})
		if err != nil {
			t.Fatalf("delta=%v: %v", on, err)
		}
		for i, st := range res.Stats {
			want := ref.Stats[i]
			if st.Mods != want.Mods || st.Ticks != want.Ticks || st.Score != want.Score ||
				st.ReachedGoal != want.ReachedGoal || st.Destroyed != want.Destroyed {
				t.Errorf("delta=%v team %d:\n got %+v\nwant %+v", on, i, st, want)
			}
		}
	}
	res, err := Run(Config{Game: g, Protocol: BSYNC, DeltaEncode: true, MaxBatchTicks: 4})
	if err != nil {
		t.Fatalf("delta+batch: %v", err)
	}
	if len(res.Stats) != 64 {
		t.Fatalf("delta+batch: %d team stats, want 64", len(res.Stats))
	}
}

// TestDeltaBytesReductionAtLeast30Pct pins the delta panel's headline on
// its smallest cell: with delta encoding and 4-tick batching on, a 60-tick
// BSYNC game at 16 processes must put at least 30% fewer wire bytes per
// exchange slot on the simulated cluster than the identical game with
// both off. The seed is the one game.DefaultConfig sets, so this is the
// panel's n=16, seed-1 cell (`sdso-bench -fig delta`).
func TestDeltaBytesReductionAtLeast30Pct(t *testing.T) {
	var row DeltaRow
	seed := game.DefaultConfig(16, 1).Seed
	off, _, _, err := runDeltaCell(16, seed, false, &row)
	if err != nil {
		t.Fatal(err)
	}
	on, _, _, err := runDeltaCell(16, seed, true, &row)
	if err != nil {
		t.Fatal(err)
	}
	row.PlainBytesPerX, row.DeltaBytesPerX = off, on
	t.Logf("n=16 bytes/exchange: plain %.1f, delta %.1f (%.1f%% reduction)", off, on, row.SavedPct())
	if row.SavedPct() < 30 {
		t.Fatalf("delta encoding + batching saved only %.1f%% of wire bytes/exchange at n=16, want >= 30%%", row.SavedPct())
	}
}
