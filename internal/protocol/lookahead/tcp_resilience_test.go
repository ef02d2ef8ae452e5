package lookahead

import (
	"net"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"sdso/internal/check"
	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/tcpchaos"
	"sdso/internal/trace"
	"sdso/internal/transport"
)

// tcpChaosSeed reads the CI matrix seed (CHAOS_SEED), defaulting to 7 —
// the same convention the simulated chaos matrix uses.
func tcpChaosSeed() int64 {
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return 7
}

// resilientTCPConfig is the session-layer configuration the resilience
// tests share: reconnect with fast backoff, liveness heartbeats, and a
// grace long enough that only genuinely dead processes are reported gone.
// The node listens on ln, its real address behind the proxy.
func resilientTCPConfig(id int, incarnation int64, grace time.Duration, ln net.Listener, mc *metrics.Collector) transport.TCPConfig {
	return transport.TCPConfig{
		Reconnect:         true,
		ReconnectGrace:    grace,
		BackoffBase:       2 * time.Millisecond,
		BackoffMax:        25 * time.Millisecond,
		BackoffSeed:       uint64(id) + 1,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatMisses:   5,
		Incarnation:       incarnation,
		Listener:          ln,
		Metrics:           mc,
	}
}

// proxyMesh fronts every node's real listener with a tcpchaos proxy: the
// mesh dials proxy addresses while each node listens on its real one, so
// all of a node's links traverse its own proxy.
func proxyMesh(t *testing.T, realAddrs []string, cfg func(i int) tcpchaos.Config) ([]*tcpchaos.Proxy, []string) {
	t.Helper()
	proxies := make([]*tcpchaos.Proxy, len(realAddrs))
	proxyAddrs := make([]string, len(realAddrs))
	for i := range realAddrs {
		p, err := tcpchaos.Listen(realAddrs[i], cfg(i))
		if err != nil {
			t.Fatalf("proxy %d: %v", i, err)
		}
		t.Cleanup(func() { p.Close() })
		proxies[i] = p
		proxyAddrs[i] = p.Addr()
	}
	return proxies, proxyAddrs
}

// TestTCPChaosKillRestartRejoin is the resilience acceptance test over real
// sockets: a 4-team BSYNC game runs through per-node chaos proxies, the
// highest-id node is SIGKILLed mid-game (endpoint aborted with RSTs, its
// proxied connections cut), the survivors suspect and evict it, and a
// restarted process with a higher incarnation re-establishes the links and
// rejoins through core.Join. The game must complete and the recorded
// histories must pass the consistency oracle.
func TestTCPChaosKillRestartRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	const (
		teams  = 4
		victim = teams - 1 // dials every peer, so its restart needs no accepts
	)
	// A large board with a distant goal keeps every team playing for long
	// enough that the kill, the evictions, and the rejoin all land while the
	// game is genuinely in progress; ComputePerTick paces the run in real
	// time (TCPEndpoint.Compute sleeps) so wall-clock fault injection has a
	// mid-game window to hit.
	cfg := game.DefaultConfig(teams, 1)
	cfg.Width = 96
	cfg.Height = 72
	cfg.MinGoalDist = 60
	cfg.Bonuses = 40
	cfg.Bombs = 50
	cfg.MaxTicks = 400
	cfg.Seed = 11

	lns, realAddrs := listenLoopback(t, teams)
	proxies, proxyAddrs := proxyMesh(t, realAddrs, func(int) tcpchaos.Config { return tcpchaos.Config{} })

	grace := 300 * time.Millisecond
	mcs := make([]*metrics.Collector, teams)
	recs := make([]*trace.Recorder, teams)
	stores := make([]*store.Store, teams)
	stats := make([]game.TeamStats, teams)
	errs := make([]error, teams)
	for i := 0; i < teams; i++ {
		mcs[i] = metrics.NewCollector()
		recs[i] = trace.NewRecorder(i)
	}
	playerCfg := func(i int, ep transport.Endpoint) PlayerConfig {
		return PlayerConfig{
			Game:              cfg,
			Protocol:          BSYNC,
			Endpoint:          ep,
			Metrics:           mcs[i],
			ComputePerTick:    10 * time.Millisecond,
			RendezvousTimeout: 150 * time.Millisecond,
			MaxRetransmits:    8,
			Trace:             recs[i],
			Snapshot:          func(st *store.Store) { stores[i] = st.Clone() },
		}
	}

	victimEP := make(chan *transport.TCPEndpoint, 1)
	victimErr := make(chan error, 1)
	var wg sync.WaitGroup
	for i := 0; i < teams; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep, err := transport.DialTCPConfig(i, proxyAddrs, resilientTCPConfig(i, 1, grace, lns[i], mcs[i]))
			if err != nil {
				errs[i] = err
				if i == victim {
					victimEP <- nil
					victimErr <- err
				}
				return
			}
			if i == victim {
				victimEP <- ep
				_, err := RunPlayer(playerCfg(i, ep))
				victimErr <- err // the kill makes this non-nil
				return
			}
			stats[i], errs[i] = RunPlayer(playerCfg(i, ep))
			_, _ = ep.Drain()
			_ = ep.Close()
		}()
	}

	vep := <-victimEP
	if vep == nil {
		t.Fatalf("victim dial: %v", <-victimErr)
	}

	// Kill mid-game: wait until the victim has played a meaningful prefix,
	// then abort its endpoint (RSTs, like a process death) and cut its
	// proxied connections for good measure.
	deadline := time.Now().Add(30 * time.Second)
	for mcs[victim].Snapshot().Ticks < 20 {
		if time.Now().After(deadline) {
			t.Fatal("victim never reached tick 20")
		}
		time.Sleep(5 * time.Millisecond)
	}
	vep.Abort()
	proxies[victim].KillConns()
	if err := <-victimErr; err == nil {
		t.Fatal("victim's first life completed despite the kill")
	}

	// The survivors must evict the dead peer: the broken links pass the
	// reconnect grace, PeerGone turns true, and the runtime's failure
	// detector strikes it out without burning the full retransmit budget.
	deadline = time.Now().Add(30 * time.Second)
	for {
		evictions := 0
		for i, mc := range mcs {
			if i != victim {
				evictions += mc.Snapshot().Evictions
			}
		}
		if evictions >= teams-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("survivors evicted %d times, want %d", evictions, teams-1)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Restart with a higher incarnation on the same real address: the
	// startup dial re-establishes every link (stale-socket-proof via the
	// handshake), and Join re-admits the process into the running game.
	ln2, err := net.Listen("tcp", realAddrs[victim])
	if err != nil {
		t.Fatalf("victim restart listen: %v", err)
	}
	ep2, err := transport.DialTCPConfig(victim, proxyAddrs, resilientTCPConfig(victim, 2, grace, ln2, mcs[victim]))
	if err != nil {
		t.Fatalf("victim restart dial: %v", err)
	}
	pcfg := playerCfg(victim, ep2)
	pcfg.Join = true
	pcfg.Incarnation = 2
	stats[victim], err = RunPlayer(pcfg)
	if err != nil {
		t.Fatalf("rejoined victim: %v", err)
	}
	_, _ = ep2.Drain()
	_ = ep2.Close()

	wg.Wait()
	for i, err := range errs {
		if i != victim && err != nil {
			t.Fatalf("survivor %d: %v", i, err)
		}
	}

	joins, reconnects := 0, 0
	for _, mc := range mcs {
		s := mc.Snapshot()
		joins += s.Joins
		reconnects += s.Reconnects
	}
	if joins == 0 {
		t.Fatal("no join handshake completed; the victim never rejoined")
	}
	if reconnects == 0 {
		t.Fatal("no reconnect recorded; the restart never resurrected a link")
	}

	// The oracle replays the recorded histories: the victim rejoined and
	// finished, so all four stores participate in the convergence check.
	h := check.History{
		Procs:   make([][]trace.Event, teams),
		Stores:  stores,
		Crashed: make([]bool, teams),
	}
	for i, r := range recs {
		if stores[i] == nil {
			t.Fatalf("team %d reported no final store", i)
		}
		h.Procs[i] = r.Events()
	}
	rep := check.Analyze(h, check.Options{
		Radius: cfg.InteractionRadius(),
		ObjPos: func(obj int64) (int, int) {
			p := cfg.PosOf(store.ID(obj))
			return p.X, p.Y
		},
		Lossy:       true, // the crash and the RSTs lose frames in flight
		Convergence: true,
	})
	if !rep.Ok() {
		t.Fatalf("consistency oracle rejected the kill-restart run:\n%v", rep.Violations)
	}
	t.Logf("killed at tick >= 20, joins=%d reconnects=%d", joins, reconnects)
}

// runTCPChaosMatrix is one cell of the CI tcp-chaos-matrix job: a full game
// over real sockets with every link subject to seeded connection kills from
// the chaos proxies. Reconnection plus the runtime's retransmission must
// absorb every cut: the game completes and the recorded histories pass the
// consistency oracle. (A retransmitted frame can arrive ticks later than the
// original would have and legitimately change what a team sees, so exact
// equality with the fault-free reference is NOT the bar — consistency is,
// exactly as in the simulated chaos matrix.)
func runTCPChaosMatrix(t *testing.T, proto Protocol) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	seed := tcpChaosSeed()
	const teams = 3
	cfg := game.DefaultConfig(teams, 1)
	cfg.MaxTicks = 80
	cfg.Seed = seed

	// Seeded per-connection byte budgets provide the organic chaos; budgets
	// much below the handshake-plus-a-few-frames size degenerate into kill
	// storms (every redial dies within milliseconds), so the floor stays
	// above it and a deterministic mid-game KillConns below guarantees at
	// least one cut even for seeds whose filtered traffic never reaches the
	// budget (MSYNC2 sends very little on a quiet board).
	lns, realAddrs := listenLoopback(t, teams)
	proxies, proxyAddrs := proxyMesh(t, realAddrs, func(i int) tcpchaos.Config {
		return tcpchaos.Config{
			Seed:         uint64(seed)*0x9e37 + uint64(i) + 1,
			KillAfterMin: 512,
			KillAfterMax: 2 << 10,
		}
	})

	mcs := make([]*metrics.Collector, teams)
	recs := make([]*trace.Recorder, teams)
	stores := make([]*store.Store, teams)
	stats := make([]game.TeamStats, teams)
	errs := make([]error, teams)
	var wg sync.WaitGroup
	for i := 0; i < teams; i++ {
		i := i
		mcs[i] = metrics.NewCollector()
		recs[i] = trace.NewRecorder(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep, err := transport.DialTCPConfig(i, proxyAddrs, resilientTCPConfig(i, 1, 10*time.Second, lns[i], mcs[i]))
			if err != nil {
				errs[i] = err
				return
			}
			stats[i], errs[i] = RunPlayer(PlayerConfig{
				Game:              cfg,
				Protocol:          proto,
				Endpoint:          ep,
				Metrics:           mcs[i],
				ComputePerTick:    2 * time.Millisecond,
				RendezvousTimeout: 100 * time.Millisecond,
				MaxRetransmits:    8,
				Trace:             recs[i],
				Snapshot:          func(st *store.Store) { stores[i] = st.Clone() },
			})
			_, _ = ep.Drain()
			_ = ep.Close()
		}()
	}

	// Guaranteed mid-game cut: once the paced game is provably in progress
	// (ComputePerTick keeps it running in real time), sever every proxied
	// connection in the mesh. Session resumption must absorb it.
	stopKill := make(chan struct{})
	killDone := make(chan struct{})
	go func() {
		defer close(killDone)
		for {
			select {
			case <-stopKill:
				return
			case <-time.After(2 * time.Millisecond):
			}
			total := 0
			for _, mc := range mcs {
				total += mc.Snapshot().Ticks
			}
			if total >= 20 {
				// Every proxy: the highest-id node dials every peer, so
				// its own listener proxy fronts no connections at all.
				for _, px := range proxies {
					px.KillConns()
				}
				return
			}
		}
	}()
	wg.Wait()
	close(stopKill)
	<-killDone
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s node %d (seed %d): %v", proto, i, seed, err)
		}
	}

	kills, reconnects := int64(0), 0
	for _, p := range proxies {
		kills += p.Kills()
	}
	for _, mc := range mcs {
		reconnects += mc.Snapshot().Reconnects
	}
	if kills == 0 {
		t.Fatalf("seed %d: the proxies never cut a connection; the chaos budget is miscalibrated", seed)
	}
	if reconnects == 0 {
		t.Fatalf("seed %d: %d kills but no reconnects recorded", seed, kills)
	}
	for i, st := range stats {
		if st.Ticks == 0 {
			t.Errorf("%s seed %d team %d recorded no ticks", proto, seed, i)
		}
	}

	h := check.History{Procs: make([][]trace.Event, teams), Stores: stores}
	for i, r := range recs {
		h.Procs[i] = r.Events()
	}
	opts := check.Options{
		Radius: cfg.InteractionRadius(),
		ObjPos: func(obj int64) (int, int) {
			p := cfg.PosOf(store.ID(obj))
			return p.X, p.Y
		},
		Lossy:       true, // every cut loses the frames in flight
		Convergence: true,
	}
	if proto == MSYNC2 {
		opts.Spatial = true
		opts.DeliveryBound = true
	}
	if rep := check.Analyze(h, opts); !rep.Ok() {
		t.Fatalf("%s seed %d: consistency oracle rejected the chaos run:\n%v", proto, seed, rep.Violations)
	}
	t.Logf("%s seed %d: %d kills, %d reconnects, oracle clean", proto, seed, kills, reconnects)
}

func TestTCPChaosMatrixBSYNC(t *testing.T)  { runTCPChaosMatrix(t, BSYNC) }
func TestTCPChaosMatrixMSYNC2(t *testing.T) { runTCPChaosMatrix(t, MSYNC2) }
