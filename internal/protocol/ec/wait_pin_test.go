package ec

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sdso/internal/game"
	"sdso/internal/lockmgr"
	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/transport"
	"sdso/internal/vtime"
	"sdso/internal/wire"
)

// pinTimeout is the suspicion timeout of the wait pins: the silences run
// 10, 20, 40, 80 ms, and the fourth is the strike after MaxRetransmits.
const pinTimeout = 10 * time.Millisecond

// pinEndpoint logs every frame its process sends, at its virtual instant.
type pinEndpoint struct {
	*transport.SimEndpoint
	role string
	log  *[]string
}

func (e pinEndpoint) Send(to int, m *wire.Msg) error {
	*e.log = append(*e.log, fmt.Sprintf("%v %s %v→%d obj=%d", e.Now(), e.role, m.Kind, to, m.Obj))
	return e.SimEndpoint.Send(to, m)
}

// pinScene is one wait scenario on the simulator. Team 0 is under test: its
// application runs app and its service runs RunService, both over logging
// endpoints. The teams in live run a service of their own and an
// application that only announces its shutdown; every other team is silent.
type pinScene struct {
	teams  int
	rejoin bool          // team 0 rejoins a game in progress
	live   []int         // teams other than 0 that answer
	seed   func(n *Node) // prepares team 0's lock manager before the run
	app    func(n *Node) error
}

// shutdownAll is the end of a pinned application: it tells every service
// it does not know to be crashed that it is finished.
func shutdownAll(n *Node) {
	for t := 0; t < n.teams; t++ {
		if !n.isCrashed(t) {
			_ = n.cfg.App.Send(n.teams+t, &wire.Msg{Kind: wire.KindShutdown, Stamp: int64(n.team)})
		}
	}
}

// run plays the scene and returns team 0's send log, the instants its
// application and service returned, and its failure-detection counters.
func (s pinScene) run(t *testing.T) string {
	t.Helper()
	sim := vtime.NewSim(vtime.Config{Horizon: 10 * time.Second})
	procs := 2 * s.teams
	nodes := make([]*Node, s.teams)
	var log []string
	var appErr, svcErr error
	var appEnd, svcEnd time.Duration
	isLive := func(team int) bool {
		for _, l := range s.live {
			if l == team {
				return true
			}
		}
		return false
	}
	for id := 0; id < procs; id++ {
		team := id % s.teams
		sim.Spawn(func(p *vtime.Proc) {
			n := nodes[team]
			switch {
			case id == 0:
				appErr = s.app(n)
				appEnd = p.Now()
			case id == s.teams:
				svcErr = n.RunService()
				svcEnd = p.Now()
			case !isLive(team):
			case id < s.teams:
				shutdownAll(n)
			default:
				if err := n.RunService(); err != nil {
					t.Errorf("live service %d: %v", team, err)
				}
			}
		})
	}
	cfg := game.DefaultConfig(s.teams, 1)
	mc := metrics.NewCollector()
	for team := range nodes {
		var app, svc transport.Endpoint = transport.NewSimEndpoint(sim.Proc(team), procs, nil),
			transport.NewSimEndpoint(sim.Proc(s.teams+team), procs, nil)
		nc := NodeConfig{Game: cfg, App: app, Svc: svc, SuspectTimeout: pinTimeout}
		if team == 0 {
			nc.App = pinEndpoint{app.(*transport.SimEndpoint), "app", &log}
			nc.Svc = pinEndpoint{svc.(*transport.SimEndpoint), "svc", &log}
			nc.Metrics = mc
			nc.Rejoin, nc.Incarnation = s.rejoin, 1
		}
		n, err := New(nc)
		if err != nil {
			t.Fatal(err)
		}
		nodes[team] = n
	}
	if s.seed != nil {
		s.seed(nodes[0])
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	st := mc.Snapshot()
	log = append(log,
		fmt.Sprintf("app returned at %v: %v", appEnd, appErr),
		fmt.Sprintf("svc returned at %v: %v", svcEnd, svcErr),
		fmt.Sprintf("suspects=%d retransmits=%d evictions=%d", st.Suspects, st.Retransmits, st.Evictions))
	return strings.Join(log, "\n")
}

// acquireThenShutdown is a pinned application that acquires one write lock
// and then shuts down.
func acquireThenShutdown(obj store.ID) func(n *Node) error {
	return func(n *Node) error {
		err := n.acquireOne(lockReq{obj: obj, write: true})
		shutdownAll(n)
		return err
	}
}

// TestECWaitSchedulesPinned pins, per site, the retransmit-and-bury
// schedule of EC's blocking waits on the simulator (1 ms links, a 10 ms
// suspicion timeout, three retransmits): the virtual instant of every frame
// team 0 sends, when its processes return, and its suspect, retransmit and
// eviction counters. Team 1 is silent in every scene but the join.
func TestECWaitSchedulesPinned(t *testing.T) {
	cases := []struct {
		name  string
		scene pinScene
		want  string
	}{
		{
			// Object 1's manager is silent: the strike after the budget
			// buries it and the request fails over to its successor, team
			// 0's own service, which adopts the shard and grants.
			name:  "grant failover",
			scene: pinScene{teams: 2, app: acquireThenShutdown(1)},
			want: `
0s app LOCK_REQ→3 obj=1
10ms app LOCK_REQ→3 obj=1
30ms app LOCK_REQ→3 obj=1
70ms app LOCK_REQ→3 obj=1
150ms app CRASH→2 obj=0
150ms app LOCK_REQ→2 obj=1
151ms svc LOCK_GRANT→0 obj=1
152ms app SHUTDOWN→2 obj=0
app returned at 152ms: <nil>
svc returned at 153ms: <nil>
suspects=1 retransmits=4 evictions=1`,
		},
		{
			// Team 0 manages object 0, but silent team 1 holds its lock: the
			// manager answers each retransmit with LOCK_BUSY naming the
			// holder (each answer restarts the silence), the strike after
			// the budget buries the holder, and the purge grants the queued
			// request.
			name: "grant blames the holder",
			scene: pinScene{teams: 2, app: acquireThenShutdown(0), seed: func(n *Node) {
				if _, err := n.mgr.Acquire(lockmgr.Request{Proc: 1, Obj: 0, Mode: lockmgr.Write}); err != nil {
					panic(err)
				}
			}},
			want: `
0s app LOCK_REQ→2 obj=0
10ms app LOCK_REQ→2 obj=0
11ms svc LOCK_BUSY→0 obj=0
32ms app LOCK_REQ→2 obj=0
33ms svc LOCK_BUSY→0 obj=0
74ms app LOCK_REQ→2 obj=0
75ms svc LOCK_BUSY→0 obj=0
156ms app CRASH→2 obj=0
157ms svc LOCK_GRANT→0 obj=0
158ms app SHUTDOWN→2 obj=0
app returned at 158ms: <nil>
svc returned at 159ms: <nil>
suspects=1 retransmits=3 evictions=1`,
		},
		{
			// The grant names silent team 1 as the owner of a newer copy:
			// the pull is retransmitted, the owner buried, and the local
			// replica kept.
			name: "pull",
			scene: pinScene{teams: 2, app: acquireThenShutdown(0), seed: func(n *Node) {
				if _, err := n.mgr.Acquire(lockmgr.Request{Proc: 1, Obj: 0, Mode: lockmgr.Write}); err != nil {
					panic(err)
				}
				if _, err := n.mgr.Release(1, 0, true, 5); err != nil {
					panic(err)
				}
			}},
			want: `
0s app LOCK_REQ→2 obj=0
1ms svc LOCK_GRANT→0 obj=0
2ms app OBJ_REQ→3 obj=0
12ms app OBJ_REQ→3 obj=0
32ms app OBJ_REQ→3 obj=0
72ms app OBJ_REQ→3 obj=0
152ms app CRASH→2 obj=0
152ms app SHUTDOWN→2 obj=0
app returned at 152ms: <nil>
svc returned at 153ms: <nil>
suspects=1 retransmits=3 evictions=1`,
		},
		{
			// Team 0 rejoins; team 1 answers at once and team 2 never does.
			// The strike after the budget buries team 2, and the application
			// then waits, polling every 10 ms, until its own service has
			// landed the shard.
			name: "join",
			scene: pinScene{teams: 3, rejoin: true, live: []int{1}, app: func(n *Node) error {
				err := n.runJoin()
				shutdownAll(n)
				return err
			}},
			want: `
0s app JOIN_REQ→4 obj=0
0s app JOIN_REQ→5 obj=0
10ms app JOIN_REQ→5 obj=0
30ms app JOIN_REQ→5 obj=0
70ms app JOIN_REQ→5 obj=0
150ms app CRASH→3 obj=0
150ms app CRASH→1 obj=0
150ms app CRASH→4 obj=0
160ms app SHUTDOWN→3 obj=0
160ms app SHUTDOWN→4 obj=0
app returned at 160ms: <nil>
svc returned at 161ms: <nil>
suspects=0 retransmits=3 evictions=1`,
		},
		{
			// The service grants, then keeps listening while its application
			// computes; once the application has shut down, four silences
			// with team 1 still outstanding let it exit.
			name: "service idle exit",
			scene: pinScene{teams: 2, app: func(n *Node) error {
				err := n.acquireOne(lockReq{obj: 0, write: true})
				n.cfg.App.Compute(100 * time.Millisecond)
				shutdownAll(n)
				return err
			}},
			want: `
0s app LOCK_REQ→2 obj=0
1ms svc LOCK_GRANT→0 obj=0
102ms app SHUTDOWN→2 obj=0
102ms app SHUTDOWN→3 obj=0
app returned at 102ms: <nil>
svc returned at 253ms: <nil>
suspects=0 retransmits=0 evictions=0`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := strings.TrimPrefix(tc.want, "\n")
			if got := tc.scene.run(t); got != want {
				t.Errorf("wait schedule moved:\n--- got\n%s\n--- want\n%s", got, want)
			}
		})
	}
}
