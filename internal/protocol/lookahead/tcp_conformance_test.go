package lookahead

import (
	"net"
	"sync"
	"testing"

	"sdso/internal/game"
	"sdso/internal/transport"
)

// listenLoopback binds n loopback listeners (transport.ListenLoopback) and
// closes at cleanup any no endpoint took.
func listenLoopback(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	lns, addrs, err := transport.ListenLoopback(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, ln := range lns {
			ln.Close()
		}
	})
	return lns, addrs
}

// runTCPConformance plays the same 4-process game twice — once over the
// in-memory transport, once over loopback TCP with deferred flushing —
// and requires identical outcomes. This is the
// conformance oracle for the coalescing TCP transport path: the
// optimizations may change how many frames cross the wire, never what the
// processes compute.
func runTCPConformance(t *testing.T, proto Protocol) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	const teams = 4
	cfg := game.DefaultConfig(teams, 1)
	cfg.MaxTicks = 80

	memStats, _ := runGame(t, cfg, proto)

	lns, addrs := listenLoopback(t, teams)
	tcpStats := make([]game.TeamStats, teams)
	errs := make([]error, teams)
	var wg sync.WaitGroup
	for i := 0; i < teams; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep, err := transport.DialTCPConfig(i, addrs, transport.TCPConfig{
				FlushThreshold: 32 << 10,
				Listener:       lns[i],
			})
			if err != nil {
				errs[i] = err
				return
			}
			defer ep.Close()
			tcpStats[i], errs[i] = RunPlayer(PlayerConfig{
				Game:     cfg,
				Protocol: proto,
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
	for i, st := range tcpStats {
		if st != memStats[i] {
			t.Errorf("team %d over TCP:\n got %+v\nwant %+v (in-memory)", i, st, memStats[i])
		}
	}
}

func TestTCPConformanceBSYNC(t *testing.T)  { runTCPConformance(t, BSYNC) }
func TestTCPConformanceMSYNC(t *testing.T)  { runTCPConformance(t, MSYNC) }
func TestTCPConformanceMSYNC2(t *testing.T) { runTCPConformance(t, MSYNC2) }
