package lookahead

import (
	"sync"
	"testing"

	"sdso/internal/game"
	"sdso/internal/transport"
)

// TestBSYNCWorldTrajectoryMatchesReference compares per-tick world hashes:
// under BSYNC every replica is a complete consistent snapshot after each
// exchange, so any live process's store must equal the reference world at
// the same tick.
func TestBSYNCWorldTrajectoryMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := game.DefaultConfig(4, 1)
		cfg.Seed = seed
		cfg.MaxTicks = 120
		ref, err := game.RunReference(cfg)
		if err != nil {
			t.Fatal(err)
		}

		net := transport.NewMemNetwork(cfg.Teams)
		hashes := make([][]uint64, cfg.Teams)
		var wg sync.WaitGroup
		for i := 0; i < cfg.Teams; i++ {
			i := i
			pc := PlayerConfig{Game: cfg, Protocol: BSYNC, Endpoint: net.Endpoint(i)}
			pc.afterExchange = func(p *player) {
				w, err := game.DecodeWorld(cfg, p.rt.Store())
				if err != nil {
					t.Error(err)
					return
				}
				hashes[i] = append(hashes[i], game.WorldHash(w))
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := RunPlayer(pc); err != nil {
					t.Errorf("player %d: %v", i, err)
				}
			}()
		}
		wg.Wait()
		net.Close()

		for i := 0; i < cfg.Teams; i++ {
			n := len(hashes[i])
			if len(ref.Hashes) < n {
				n = len(ref.Hashes)
			}
			for k := 0; k < n; k++ {
				if hashes[i][k] != ref.Hashes[k] {
					t.Fatalf("seed=%d: process %d diverged from reference at tick %d", seed, i, k+1)
				}
			}
		}
	}
}

// TestActionTracesMatchReference compares every team's full decision
// sequence against the reference, per protocol — a finer-grained check than
// final stats (it localizes any future regression to the first divergent
// decision).
func TestActionTracesMatchReference(t *testing.T) {
	for _, proto := range []Protocol{BSYNC, MSYNC, MSYNC2} {
		for seed := int64(1); seed <= 5; seed++ {
			cfg := game.DefaultConfig(8, 1)
			cfg.Seed = seed
			cfg.MaxTicks = 150
			cfg.TraceWorlds = true
			ref, err := game.RunReference(cfg)
			if err != nil {
				t.Fatal(err)
			}

			net := transport.NewMemNetwork(cfg.Teams)
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
			net.Close()

			for team := 0; team < cfg.Teams; team++ {
				refTr, got := ref.Actions[team], traces[team]
				if len(refTr) != len(got) {
					t.Errorf("%v seed=%d team %d: %d actions, reference has %d",
						proto, seed, team, len(got), len(refTr))
				}
				n := len(refTr)
				if len(got) < n {
					n = len(got)
				}
				for k := 0; k < n; k++ {
					if refTr[k] != got[k] {
						t.Fatalf("%v seed=%d team %d action %d: got %q, reference %q",
							proto, seed, team, k, got[k], refTr[k])
					}
				}
			}
		}
	}
}
