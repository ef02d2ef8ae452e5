package lookahead

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"sdso/internal/game"
	"sdso/internal/transport"
)

// collectTraces plays a full game over memnet and returns each team's
// action trace.
func collectTraces(t *testing.T, cfg game.Config, proto Protocol) [][]string {
	t.Helper()
	net := transport.NewMemNetwork(cfg.Teams)
	defer net.Close()
	traces := make([][]string, cfg.Teams)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < cfg.Teams; i++ {
		i := i
		pc := PlayerConfig{Game: cfg, Protocol: proto, Endpoint: net.Endpoint(i)}
		pc.onActions = func(tick int64, act game.Action) {
			mu.Lock()
			defer mu.Unlock()
			traces[i] = append(traces[i], game.TraceAction(tick, act))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunPlayer(pc); err != nil {
				t.Errorf("%v player %d: %v", proto, i, err)
			}
		}()
	}
	wg.Wait()
	return traces
}

// requireSameTraces fails at the first action where two runs of the same
// game diverge.
func requireSameTraces(t *testing.T, label string, base, got [][]string) {
	t.Helper()
	if reflect.DeepEqual(base, got) {
		return
	}
	for team := range base {
		n := len(base[team])
		if len(got[team]) < n {
			n = len(got[team])
		}
		for k := 0; k < n; k++ {
			if base[team][k] != got[team][k] {
				t.Fatalf("%s team %d action %d: %q vs %q", label, team, k, got[team][k], base[team][k])
			}
		}
	}
	t.Fatalf("%s: trace lengths differ", label)
}

// TestRunsAreScheduleIndependent: the distributed execution must produce
// identical action traces regardless of goroutine/message interleaving —
// the protocols' behaviour may depend only on logical time, never on
// wall-clock arrival order.
func TestRunsAreScheduleIndependent(t *testing.T) {
	for _, proto := range []Protocol{BSYNC, MSYNC, MSYNC2} {
		cfg := game.DefaultConfig(8, 1)
		cfg.MaxTicks = 100
		base := collectTraces(t, cfg, proto)
		for run := 0; run < 5; run++ {
			requireSameTraces(t, fmt.Sprintf("%v run %d", proto, run), base, collectTraces(t, cfg, proto))
		}
	}
}

// TestMSYNCShortGameRepeatsOverMem: eleven runs of one 40-tick MSYNC game
// over the in-memory transport must match action for action — a shorter
// game than TestRunsAreScheduleIndependent plays, repeated twice as often.
func TestMSYNCShortGameRepeatsOverMem(t *testing.T) {
	cfg := game.DefaultConfig(8, 1)
	cfg.MaxTicks = 40
	base := collectTraces(t, cfg, MSYNC)
	for run := 0; run < 10; run++ {
		requireSameTraces(t, fmt.Sprintf("run %d", run), base, collectTraces(t, cfg, MSYNC))
	}
}
