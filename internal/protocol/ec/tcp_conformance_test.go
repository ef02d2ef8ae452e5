package ec

import (
	"sync"
	"testing"

	"sdso/internal/game"
	"sdso/internal/transport"
)

// TestTCPConformanceEC plays the same 4-process EC game over the in-memory
// transport and over loopback TCP with deferred flushing. EC is
// asynchronous — its trajectories are scheduling-dependent even on a single
// transport — so conformance means both runs complete and both final
// worlds pass the same safety oracle (checkECWorldSanity), not that the
// trajectories match. Each node gets two TCP endpoints, matching the
// in-memory layout: apps 0..n-1, services n..2n-1.
func TestTCPConformanceEC(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	const teams = 4
	cfg := game.DefaultConfig(teams, 1)
	cfg.MaxTicks = 80

	memNodes, memStats := runECGame(t, cfg)
	checkECWorldSanity(t, cfg, memNodes, memStats, "mem")

	lns, addrs, err := transport.ListenLoopback(2 * teams)
	if err != nil {
		t.Fatal(err)
	}

	eps := make([]*transport.TCPEndpoint, 2*teams)
	dialErrs := make([]error, 2*teams)
	var wg sync.WaitGroup
	for i := range eps {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			eps[i], dialErrs[i] = transport.DialTCPConfig(i, addrs, transport.TCPConfig{
				FlushThreshold: 32 << 10,
				Listener:       lns[i],
			})
		}()
	}
	wg.Wait()
	for i, err := range dialErrs {
		if err != nil {
			t.Fatalf("DialTCPConfig(%d): %v", i, err)
		}
	}
	defer func() {
		// Close concurrently: a sequential teardown leaves the first
		// endpoint's read loops blocked on still-open peers until the
		// close grace expires.
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

	apps := make([]transport.Endpoint, teams)
	svcs := make([]transport.Endpoint, teams)
	for i := 0; i < teams; i++ {
		apps[i] = eps[i]
		svcs[i] = eps[teams+i]
	}
	tcpNodes, tcpStats := runECGameOn(t, cfg, apps, svcs)
	checkECWorldSanity(t, cfg, tcpNodes, tcpStats, "tcp")
}
