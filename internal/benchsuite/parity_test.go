package benchsuite

import (
	"encoding/json"
	"os"
	"testing"
)

// TestFramesMatchPR4Baseline pins the replication machinery to strict
// opt-in: a runtime with no checkpoint stream configured must put exactly
// the same physical frames and wire bytes per exchange on the TCP
// transport as the recorded PR4 baseline — the quorum PR may not add a
// single byte to the non-replicated path. The expected numbers are read
// from BENCH_PR4.json itself (the FramesPerExchange entry), so a drift in
// either direction fails loudly.
//
// The byte figure was re-recorded once, at PR 20, when the message codec
// went from a fixed 30-byte header and 8-byte ints to varints: the single
// key wirebytes/exchange_piggyback was hand-edited 67 → 37.74 (7 548 B over
// 200 exchanges; not a whole number because stamps past 63 take a second
// varint byte) and the rest of the file — timings of a PR 4 build — left as
// recorded. frames/exchange_piggyback did not move.
func TestFramesMatchPR4Baseline(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_PR4.json")
	if err != nil {
		t.Fatalf("reading baseline: %v", err)
	}
	var baseline struct {
		Results []struct {
			Name  string             `json:"name"`
			Extra map[string]float64 `json:"extra"`
		} `json:"results"`
	}
	if err := json.Unmarshal(raw, &baseline); err != nil {
		t.Fatalf("decoding baseline: %v", err)
	}
	var want map[string]float64
	for _, r := range baseline.Results {
		if r.Name == "FramesPerExchange" {
			want = r.Extra
		}
	}
	if want == nil {
		t.Fatal("BENCH_PR4.json has no FramesPerExchange entry")
	}

	frames, bytes := framesPerExchange(t)
	got := map[string]float64{
		"frames/exchange_piggyback":    frames,
		"wirebytes/exchange_piggyback": bytes,
	}
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			t.Errorf("baseline is missing %q", key)
			continue
		}
		if g != w {
			t.Errorf("%s: got %v, baseline %v — the non-replicated path changed", key, g, w)
		}
	}
}
