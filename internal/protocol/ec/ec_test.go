package ec

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sdso/internal/game"
	"sdso/internal/lockmgr"
	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/transport"
)

// runECGame plays a full EC game over the in-memory transport (2 endpoints
// per node: apps 0..n-1, services n..2n-1).
func runECGame(t *testing.T, cfg game.Config) ([]*Node, []game.TeamStats) {
	t.Helper()
	n := cfg.Teams
	net := transport.NewMemNetwork(2 * n)
	t.Cleanup(net.Close)
	apps := make([]transport.Endpoint, n)
	svcs := make([]transport.Endpoint, n)
	for i := 0; i < n; i++ {
		apps[i] = net.Endpoint(i)
		svcs[i] = net.Endpoint(n + i)
	}
	return runECGameOn(t, cfg, apps, svcs)
}

// runECGameOn plays a full EC game over caller-supplied app and service
// endpoints (one pair per node), whatever transport they sit on.
func runECGameOn(t *testing.T, cfg game.Config, apps, svcs []transport.Endpoint) ([]*Node, []game.TeamStats) {
	t.Helper()
	n := cfg.Teams
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		node, err := New(NodeConfig{
			Game:    cfg,
			App:     apps[i],
			Svc:     svcs[i],
			Metrics: metrics.NewCollector(),
		})
		if err != nil {
			t.Fatalf("New(%d): %v", i, err)
		}
		nodes[i] = node
	}
	stats := make([]game.TeamStats, n)
	appErrs := make([]error, n)
	svcErrs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(2)
		go func() {
			defer wg.Done()
			svcErrs[i] = nodes[i].RunService()
		}()
		go func() {
			defer wg.Done()
			stats[i], appErrs[i] = nodes[i].RunApp()
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("EC game deadlocked")
	}
	for i := 0; i < n; i++ {
		if appErrs[i] != nil {
			t.Fatalf("app %d: %v", i, appErrs[i])
		}
		if svcErrs[i] != nil {
			t.Fatalf("svc %d: %v", i, svcErrs[i])
		}
	}
	return nodes, stats
}

// TestECGameSafetyInvariants: EC's trajectories may differ from the
// lockstep reference (it is asynchronous), but the world it produces must
// be sane: tanks are conserved (on board, at goal, or destroyed), the goal
// block survives, bombs never move, and no block holds a tank of a
// finished team.
//
// Conservation has to allow for the horizon race: a team that runs out of
// ticks exits with Destroyed=false and leaves its tank idle on the board,
// and a slower asynchronous peer still playing can shoot that tank
// afterwards. The victim never runs another tick to notice, so "live team,
// zero tanks on board" is a legal final state exactly when an enemy write
// removed the tank from the block its owner left it on.
func TestECGameSafetyInvariants(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := game.DefaultConfig(6, 1)
		cfg.Seed = seed
		cfg.MaxTicks = 120
		nodes, stats := runECGame(t, cfg)
		checkECWorldSanity(t, cfg, nodes, stats, fmt.Sprintf("seed %d", seed))
	}
}

// checkECWorldSanity is the EC conformance oracle: merge the replicas by
// version into the final world and require tank conservation, a surviving
// goal block, stationary bombs, and no tanks left for finished teams. A
// live team's tanks are each either still on the board or were overwritten,
// after the team's last tick, by another team's write to the block the
// team left them on.
func checkECWorldSanity(t *testing.T, cfg game.Config, nodes []*Node, stats []game.TeamStats, label string) {
	t.Helper()
	initial, err := game.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Merge replicas by version to reconstruct the final world. The
	// process that wrote a block's winning version still holds it under
	// its own name (replicas that merely pulled it record no writer), so
	// the merge can also say who wrote each block last.
	merged := store.New()
	lastWriter := make([]int, cfg.NumObjects())
	for i := 0; i < cfg.NumObjects(); i++ {
		id := store.ID(i)
		var best []byte
		bestVer := int64(-1)
		for _, node := range nodes {
			v, err := node.Store().Version(id)
			if err != nil {
				t.Fatal(err)
			}
			if v < bestVer {
				continue
			}
			if v > bestVer {
				bestVer = v
				best, _ = node.Store().Get(id)
				lastWriter[i] = -1
			}
			if w, _ := node.Store().WriterOf(id); w >= 0 {
				lastWriter[i] = w
			}
		}
		if err := merged.Register(id, best); err != nil {
			t.Fatal(err)
		}
	}
	final, err := game.DecodeWorld(cfg, merged)
	if err != nil {
		t.Fatalf("%s: final world corrupt: %v", label, err)
	}

	// Tank conservation per team.
	tanksOnBoard := map[int]int{}
	bombs := 0
	goalSeen := false
	for i, c := range final.Cells {
		switch c.Kind {
		case game.Tank:
			tanksOnBoard[c.Team]++
		case game.Bomb:
			bombs++
			if initial.Cells[i].Kind != game.Bomb {
				t.Errorf("%s: bomb appeared at %v", label, cfg.PosOf(store.ID(i)))
			}
		case game.Goal:
			goalSeen = true
		}
	}
	if !goalSeen {
		t.Errorf("%s: goal block destroyed", label)
	}
	if bombs != cfg.Bombs {
		t.Errorf("%s: %d bombs, want %d", label, bombs, cfg.Bombs)
	}
	for _, st := range stats {
		onBoard := tanksOnBoard[st.Team]
		switch {
		case st.ReachedGoal, st.Destroyed:
			if onBoard != 0 {
				t.Errorf("%s: finished team %d still on board (%d tanks): %+v", label, st.Team, onBoard, st)
			}
		default:
			// The tanks the team left behind when it stopped playing.
			shotAfterExit := 0
			for _, tank := range nodes[st.Team].turn.Tanks {
				if c := final.At(tank.Pos); c.Kind == game.Tank && c.Team == st.Team {
					continue
				}
				if w := lastWriter[cfg.ObjectOf(tank.Pos)]; w < 0 || w == st.Team {
					t.Errorf("%s: live team %d's tank at %v vanished without an enemy write (last writer %d): %+v",
						label, st.Team, tank.Pos, w, st)
					continue
				}
				shotAfterExit++
			}
			if onBoard+shotAfterExit != cfg.TanksPerTeam {
				t.Errorf("%s: live team %d has %d tanks on board and %d shot after its last tick, want %d in all: %+v",
					label, st.Team, onBoard, shotAfterExit, cfg.TanksPerTeam, st)
			}
		}
	}
}

// TestECLockSetArithmetic checks the paper's §4 lock counts: range 1 means
// 5 locks (all write); range 3 means 13 locks, 5 write.
func TestECLockSetArithmetic(t *testing.T) {
	for _, tt := range []struct {
		rng, total, writes int
	}{
		{1, 5, 5},
		{3, 13, 5},
	} {
		cfg := game.DefaultConfig(2, tt.rng)
		net := transport.NewMemNetwork(4)
		node, err := New(NodeConfig{Game: cfg, App: net.Endpoint(0), Svc: net.Endpoint(2)})
		net.Close()
		if err != nil {
			t.Fatal(err)
		}
		// Put the tank mid-board so nothing clips at an edge.
		node.turn.Tanks = []game.TankState{game.NewTankState(game.Pos{X: 16, Y: 12})}
		locks := node.turn.AccessSet(cfg.Range)
		writes := 0
		for _, lr := range locks {
			if lr.Write {
				writes++
			}
		}
		if len(locks) != tt.total || writes != tt.writes {
			t.Errorf("range %d: %d locks (%d write), want %d (%d write)",
				tt.rng, len(locks), writes, tt.total, tt.writes)
		}
		for i := 1; i < len(locks); i++ {
			if locks[i-1].Obj >= locks[i].Obj {
				t.Errorf("range %d: lock set not in ascending object order", tt.rng)
			}
		}
	}
}

// TestECManagersPartitioned: every object's lock manager is the statically
// assigned node.
func TestECManagersPartitioned(t *testing.T) {
	cfg := game.DefaultConfig(4, 1)
	net := transport.NewMemNetwork(8)
	defer net.Close()
	nodes := make([]*Node, 4)
	for i := 0; i < 4; i++ {
		node, err := New(NodeConfig{Game: cfg, App: net.Endpoint(i), Svc: net.Endpoint(4 + i)})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
	}
	for obj := 0; obj < cfg.NumObjects(); obj++ {
		owner := lockmgr.ManagerFor(store.ID(obj), 4)
		for i, node := range nodes {
			if got := node.mgr.Manages(store.ID(obj)); got != (i == owner) {
				t.Fatalf("object %d: node %d manages=%v, owner=%d", obj, i, got, owner)
			}
		}
	}
}
