package ec

import (
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/tcpchaos"
	"sdso/internal/transport"
)

// TestTCPChaosMatrixEC is the EC cell of the CI tcp-chaos-matrix job: a full
// entry-consistency game over loopback TCP with every node's links subject
// to seeded connection kills from a tcpchaos proxy. The resilient session
// layer reconnects under the protocol, EC's own suspicion/retransmission
// machinery recovers the lock and data messages each cut loses, the game
// completes, and the merged final world passes the EC safety oracle.
func TestTCPChaosMatrixEC(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	seed := int64(7)
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			seed = v
		}
	}
	const teams = 3
	cfg := game.DefaultConfig(teams, 1)
	cfg.MaxTicks = 60
	cfg.Seed = seed

	// 2n endpoints (apps 0..n-1, services n..2n-1), each fronted by its own
	// chaos proxy: the mesh dials proxy addresses, every node listens on its
	// real one.
	lns, realAddrs, err := transport.ListenLoopback(2 * teams)
	if err != nil {
		t.Fatal(err)
	}
	proxies := make([]*tcpchaos.Proxy, 2*teams)
	proxyAddrs := make([]string, 2*teams)
	for i := range proxies {
		p, err := tcpchaos.Listen(realAddrs[i], tcpchaos.Config{
			Seed: uint64(seed)*0x51ed + uint64(i) + 1,
			// Low enough that some connection outlives its budget in every
			// game: at 2–6 KB one run in five under a loaded `go test ./...`
			// ended before any had, and failed below for want of one cut.
			// The budget counts bytes, so it shrinks with the frames: at
			// 1–3 KB seed 33 went uncut once Src and Dst left the encoding
			// (an EC frame on the socket went from about 19 bytes to 11).
			KillAfterMin: 1 << 9,
			KillAfterMax: 3 << 9,
		})
		if err != nil {
			t.Fatalf("proxy %d: %v", i, err)
		}
		t.Cleanup(func() { p.Close() })
		proxies[i] = p
		proxyAddrs[i] = p.Addr()
	}

	mcs := make([]*metrics.Collector, 2*teams)
	eps := make([]*transport.TCPEndpoint, 2*teams)
	dialErrs := make([]error, 2*teams)
	var dw sync.WaitGroup
	for i := range eps {
		i := i
		mcs[i] = metrics.NewCollector()
		dw.Add(1)
		go func() {
			defer dw.Done()
			eps[i], dialErrs[i] = transport.DialTCPConfig(i, proxyAddrs, transport.TCPConfig{
				Reconnect:         true,
				ReconnectGrace:    10 * time.Second,
				BackoffBase:       2 * time.Millisecond,
				BackoffMax:        25 * time.Millisecond,
				BackoffSeed:       uint64(i) + 1,
				HeartbeatInterval: 100 * time.Millisecond,
				HeartbeatMisses:   5,
				Incarnation:       1,
				Listener:          lns[i],
				Metrics:           mcs[i],
			})
		}()
	}
	dw.Wait()
	for i, err := range dialErrs {
		if err != nil {
			t.Fatalf("DialTCPConfig(%d): %v", i, err)
		}
	}
	defer func() {
		var cw sync.WaitGroup
		for _, ep := range eps {
			ep := ep
			cw.Add(1)
			go func() {
				defer cw.Done()
				ep.Close()
			}()
		}
		cw.Wait()
	}()

	nodes := make([]*Node, teams)
	for i := 0; i < teams; i++ {
		node, err := New(NodeConfig{
			Game:           cfg,
			App:            eps[i],
			Svc:            eps[teams+i],
			Metrics:        mcs[i],
			SuspectTimeout: 150 * time.Millisecond,
			MaxRetransmits: 100, // kills are transient; never declare a live peer crashed
		})
		if err != nil {
			t.Fatalf("New(%d): %v", i, err)
		}
		nodes[i] = node
	}
	stats := make([]game.TeamStats, teams)
	appErrs := make([]error, teams)
	svcErrs := make([]error, teams)
	var wg sync.WaitGroup
	for i := 0; i < teams; i++ {
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
	case <-time.After(180 * time.Second):
		t.Fatal("EC game deadlocked under chaos")
	}
	for i := 0; i < teams; i++ {
		if appErrs[i] != nil {
			t.Fatalf("app %d (seed %d): %v", i, seed, appErrs[i])
		}
		if svcErrs[i] != nil {
			t.Fatalf("svc %d (seed %d): %v", i, seed, svcErrs[i])
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
	checkECWorldSanity(t, cfg, nodes, stats, "tcp-chaos")
	t.Logf("EC seed %d: %d kills, %d reconnects, world sane", seed, kills, reconnects)
}
