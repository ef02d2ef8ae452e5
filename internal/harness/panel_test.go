package harness

import (
	"os"
	"strings"
	"testing"
)

// TestPanelsPinned plays every simulated panel at seed 1 — Figures 5-8 at
// both ranges (8 at range 1 only), blocking, datasize, quorum and delta,
// then interest and shard at n=64 only — and compares their tables with
// testdata/panels.golden. The golden was recorded with the per-panel
// functions the panel engine replaced, their wall columns cut; it is never
// regenerated from the engine. Its BSYNC columns were re-recorded once,
// when BSYNC stopped sending frames to a peer the replica shows ended, and
// the lookahead columns once more, when every variant did. When the start
// became rendezvous 0 and the box terms lost their halving, the MSYNC and
// MSYNC2 columns, the MSYNC2 quorum rows and the batched BSYNC tables
// (delta, interest, shard: a k-tick batch now first meets at tick k, not
// 1) were re-recorded; the unbatched BSYNC and every EC column held.
func TestPanelsPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/panels.golden")
	if err != nil {
		t.Fatal(err)
	}
	seeds := []int64{1}
	var b strings.Builder
	for _, p := range Panels(SweepConfig{Seeds: seeds}) {
		if p.Name == "interest" || p.Name == "shard" || p.Name == "resilience" {
			continue
		}
		table, err := p.Play()
		if err != nil {
			t.Fatalf("%s range %d: %v", p.Name, p.Range, err)
		}
		b.WriteString(table + "\n")
	}
	for _, table := range []func(int) (string, error){
		interestPanel([]int{64}, seeds).table,
		shardPanel([]int{64}, seeds).table,
	} {
		out, err := table(0)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(out + "\n")
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(got), len(wantLines)); i++ {
		g, w := "<none>", "<none>"
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d:\n got %q\nwant %q", i+1, g, w)
		}
	}
}
