package lookahead

import (
	"net"
	"sync"
	"testing"

	"sdso/internal/game"
	"sdso/internal/transport"
)

// reserveLoopbackAddrs picks n distinct loopback addresses by briefly
// listening on them.
func reserveLoopbackAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs
}

// runTCPConformance plays the same 4-process game twice — once over the
// in-memory transport, once over loopback TCP with deferred flushing —
// and requires identical outcomes. This is the
// conformance oracle for the encode-once/coalescing transport path: the
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

	addrs := reserveLoopbackAddrs(t, teams)
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
