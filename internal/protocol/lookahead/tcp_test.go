package lookahead

import (
	"sync"
	"testing"

	"sdso/internal/game"
	"sdso/internal/transport"
)

// TestGameOverRealTCP runs a complete distributed game over loopback TCP —
// the paper's actual deployment shape ("directly layered onto sockets") —
// and checks it reproduces the lockstep reference exactly.
func TestGameOverRealTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	const teams = 3
	cfg := game.DefaultConfig(teams, 1)
	cfg.MaxTicks = 80
	ref, err := game.RunReference(cfg)
	if err != nil {
		t.Fatal(err)
	}

	lns, addrs := listenLoopback(t, teams)

	stats := make([]game.TeamStats, teams)
	errs := make([]error, teams)
	var wg sync.WaitGroup
	for i := 0; i < teams; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep, err := transport.DialTCPConfig(i, addrs, transport.TCPConfig{Listener: lns[i]})
			if err != nil {
				errs[i] = err
				return
			}
			defer ep.Close()
			stats[i], errs[i] = RunPlayer(PlayerConfig{
				Game:     cfg,
				Protocol: MSYNC2,
				Endpoint: ep,
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for i, st := range stats {
		want := ref.Stats[i]
		if st.Mods != want.Mods || st.Ticks != want.Ticks || st.Score != want.Score ||
			st.ReachedGoal != want.ReachedGoal || st.Destroyed != want.Destroyed {
			t.Errorf("TCP team %d:\n got %+v\nwant %+v", i, st, want)
		}
	}
}
