package harness

import (
	"strings"
	"testing"
)

func TestResilienceAnalysisLookahead(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	rows, err := ResilienceAnalysis([]Protocol{BSYNC}, []int64{7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Protocol != BSYNC || rows[0].Seeds != 1 {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	if rows[0].Kills == 0 {
		t.Fatal("the chaos proxies never cut a connection")
	}
	if rows[0].Reconnects == 0 {
		t.Fatalf("%d kills but no reconnects recorded", rows[0].Kills)
	}
	out := RenderResilience(rows)
	if !strings.Contains(out, "BSYNC") || !strings.Contains(out, "reconnects") {
		t.Fatalf("render missing columns:\n%s", out)
	}
}

func TestResilienceAnalysisEC(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	rows, err := ResilienceAnalysis([]Protocol{EC}, []int64{7})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Kills == 0 || rows[0].Reconnects == 0 {
		t.Fatalf("EC cell recorded kills=%d reconnects=%d", rows[0].Kills, rows[0].Reconnects)
	}
}

func TestResilienceAnalysisRejectsUnrunnableProtocol(t *testing.T) {
	if _, err := ResilienceAnalysis([]Protocol{Central}, []int64{7}); err == nil {
		t.Fatal("Central has no TCP runner and must be rejected")
	}
}

// TestRenderResilienceHeader pins the panel's columns: the session layer's
// resilience counters, and nothing a shipped configuration never moves.
func TestRenderResilienceHeader(t *testing.T) {
	out := RenderResilience([]ResilienceRow{{Protocol: BSYNC, Seeds: 1, Kills: 3, Reconnects: 6}})
	lines := strings.Split(out, "\n")
	want := "   proto  seeds  kills reconnects hb-missed sendq-peak  drain-bytes      wall"
	if len(lines) < 3 {
		t.Fatalf("render = %q, want a title, a header and a row", out)
	}
	if lines[1] != want {
		t.Fatalf("header = %q, want %q", lines[1], want)
	}
	if row := strings.Fields(lines[2]); len(row) != len(strings.Fields(want)) || row[0] != "BSYNC" || row[2] != "3" || row[3] != "6" {
		t.Fatalf("row = %q does not line up with the header", lines[2])
	}
}
