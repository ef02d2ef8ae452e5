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
	matchGolden(t, "testdata/panels.golden", b.String())
}

// TestExtensionPanelsPinned plays Figures 5-7 at both ranges and seed 1
// with the extension baselines, LRC and CAUSAL, beside the paper's four —
// the tables `sdso-bench -fig N -extensions -seeds 1` prints, wall lines
// cut — and compares them with testdata/extensions.golden, recorded from
// that command before EC and LRC shared one node.
func TestExtensionPanelsPinned(t *testing.T) {
	protos := append(append([]Protocol(nil), PaperProtocols...), LRC, Causal)
	panels := Panels(SweepConfig{Protocols: protos, Seeds: []int64{1}})
	var b strings.Builder
	for _, fig := range []string{"5", "6", "7"} {
		for _, p := range panels {
			if p.Name != fig {
				continue
			}
			table, err := p.Play()
			if err != nil {
				t.Fatalf("%s range %d: %v", p.Name, p.Range, err)
			}
			b.WriteString(table + "\n")
		}
	}
	matchGolden(t, "testdata/extensions.golden", b.String())
}

// matchGolden fails at the first line where got differs from the golden
// file at path.
func matchGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		g, w := "<none>", "<none>"
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got %q\nwant %q", path, i+1, g, w)
		}
	}
}
