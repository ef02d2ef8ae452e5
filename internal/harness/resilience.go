package harness

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/protocol/ec"
	"sdso/internal/protocol/lookahead"
	"sdso/internal/tcpchaos"
	"sdso/internal/transport"
)

// ResilienceRow is one protocol's line of the transport-resilience panel:
// a full game over real loopback sockets with every link subject to seeded
// connection kills from tcpchaos proxies, averaged over the given seeds.
// The counters are the resilience metrics the session layer exports —
// kills absorbed, links re-established, heartbeats missed, send-queue
// pressure, and bytes the graceful drain put on the wire at shutdown.
type ResilienceRow struct {
	Protocol          Protocol
	Seeds             int
	Kills             int64
	Reconnects        int
	HeartbeatsMissed  int
	SendQDepthPeak    int
	DrainFlushedBytes int
	Wall              time.Duration // total wall-clock across seeds
}

// resilienceSeedCfg is the per-run shape shared by every cell: 3 teams,
// the default board, a short horizon, kill budgets that cut each
// connection after 512 B - 2 KiB.
const resilienceTeams = 3

func resilienceGame(seed int64) game.Config {
	cfg := game.DefaultConfig(resilienceTeams, 1)
	cfg.MaxTicks = 80
	cfg.Seed = seed
	return cfg
}

func resilienceEndpointConfig(id int, ln net.Listener, mc *metrics.Collector) transport.TCPConfig {
	return transport.TCPConfig{
		Reconnect:         true,
		ReconnectGrace:    10 * time.Second, // kills are transient: never declare a live peer gone
		BackoffBase:       2 * time.Millisecond,
		BackoffMax:        25 * time.Millisecond,
		BackoffSeed:       uint64(id) + 1,
		HeartbeatInterval: 100 * time.Millisecond,
		HeartbeatMisses:   5,
		Incarnation:       1,
		Listener:          ln,
		Metrics:           mc,
	}
}

// resilienceMesh binds n loopback listeners and fronts each with a chaos
// proxy seeded from (seed, ordinal). The caller closes the proxies and
// hands the listeners to dialResilientMesh.
func resilienceMesh(n int, seed int64) (proxies []*tcpchaos.Proxy, proxyAddrs []string, lns []net.Listener, err error) {
	lns, realAddrs, err := transport.ListenLoopback(n)
	if err != nil {
		return nil, nil, nil, err
	}
	proxies = make([]*tcpchaos.Proxy, n)
	proxyAddrs = make([]string, n)
	for i := range proxies {
		p, perr := tcpchaos.Listen(realAddrs[i], tcpchaos.Config{
			Seed:         uint64(seed)*0x9e37 + uint64(i) + 1,
			KillAfterMin: 512,
			KillAfterMax: 2 << 10,
		})
		if perr != nil {
			for _, q := range proxies[:i] {
				q.Close()
			}
			for _, ln := range lns {
				_ = ln.Close()
			}
			return nil, nil, nil, fmt.Errorf("proxy %d: %w", i, perr)
		}
		proxies[i] = p
		proxyAddrs[i] = p.Addr()
	}
	return proxies, proxyAddrs, lns, nil
}

// dialResilientMesh brings up one resilient endpoint per address slot, on
// its listener, concurrently (the mesh handshake needs all sides dialing).
func dialResilientMesh(proxyAddrs []string, lns []net.Listener, mcs []*metrics.Collector) ([]*transport.TCPEndpoint, error) {
	eps := make([]*transport.TCPEndpoint, len(proxyAddrs))
	errs := make([]error, len(proxyAddrs))
	var wg sync.WaitGroup
	for i := range eps {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			eps[i], errs[i] = transport.DialTCPConfig(i, proxyAddrs,
				resilienceEndpointConfig(i, lns[i], mcs[i]))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			for _, ep := range eps {
				if ep != nil {
					ep.Abort()
				}
			}
			return nil, fmt.Errorf("dial %d: %w", i, err)
		}
	}
	return eps, nil
}

func closeAll(eps []*transport.TCPEndpoint) {
	var wg sync.WaitGroup
	for _, ep := range eps {
		ep := ep
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = ep.Drain()
			_ = ep.Close()
		}()
	}
	wg.Wait()
}

// runResilienceLookahead runs one lookahead cell and folds its counters
// into row.
func runResilienceLookahead(p Protocol, seed int64, row *ResilienceRow) error {
	cfg := resilienceGame(seed)
	proxies, proxyAddrs, lns, err := resilienceMesh(resilienceTeams, seed)
	if err != nil {
		return err
	}
	defer func() {
		for _, px := range proxies {
			px.Close()
		}
	}()
	mcs := make([]*metrics.Collector, resilienceTeams)
	for i := range mcs {
		mcs[i] = metrics.NewCollector()
	}
	eps, err := dialResilientMesh(proxyAddrs, lns, mcs)
	if err != nil {
		return err
	}
	errs := make([]error, resilienceTeams)
	var wg sync.WaitGroup
	for i := 0; i < resilienceTeams; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pc := Config{Game: cfg, Protocol: p, SuspectTimeout: 100 * time.Millisecond}.player(eps[i], mcs[i])
			pc.MaxRetransmits = 8
			_, errs[i] = lookahead.RunPlayer(pc)
		}()
	}
	wg.Wait()
	closeAll(eps)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("%s node %d seed %d: %w", p, i, seed, err)
		}
	}
	foldResilience(row, proxies, mcs)
	return nil
}

// runResilienceEC runs the EC cell: 2n endpoints (apps and lock services),
// every link chaos-proxied. Session resumption is what makes this cell
// finish at all — EC's lock releases are fire-and-forget, so a lost
// RELEASE would wedge a lock forever.
func runResilienceEC(seed int64, row *ResilienceRow) error {
	cfg := resilienceGame(seed)
	cfg.MaxTicks = 60
	proxies, proxyAddrs, lns, err := resilienceMesh(2*resilienceTeams, seed)
	if err != nil {
		return err
	}
	defer func() {
		for _, px := range proxies {
			px.Close()
		}
	}()
	mcs := make([]*metrics.Collector, 2*resilienceTeams)
	for i := range mcs {
		mcs[i] = metrics.NewCollector()
	}
	eps, err := dialResilientMesh(proxyAddrs, lns, mcs)
	if err != nil {
		return err
	}
	run := Config{Game: cfg, Protocol: EC, SuspectTimeout: 150 * time.Millisecond}
	nodes := make([]*ec.Node, resilienceTeams)
	for i := 0; i < resilienceTeams; i++ {
		nc := run.ecNode(eps[i], eps[resilienceTeams+i], mcs[i])
		nc.MaxRetransmits = 100
		node, nerr := ec.New(nc)
		if nerr != nil {
			closeAll(eps)
			return fmt.Errorf("ec.New(%d): %w", i, nerr)
		}
		nodes[i] = node
	}
	appErrs := make([]error, resilienceTeams)
	svcErrs := make([]error, resilienceTeams)
	var wg sync.WaitGroup
	for i := 0; i < resilienceTeams; i++ {
		i := i
		wg.Add(2)
		go func() {
			defer wg.Done()
			svcErrs[i] = nodes[i].RunService()
		}()
		go func() {
			defer wg.Done()
			_, appErrs[i] = nodes[i].RunApp()
		}()
	}
	wg.Wait()
	closeAll(eps)
	for i := 0; i < resilienceTeams; i++ {
		if appErrs[i] != nil {
			return fmt.Errorf("EC app %d seed %d: %w", i, seed, appErrs[i])
		}
		if svcErrs[i] != nil {
			return fmt.Errorf("EC svc %d seed %d: %w", i, seed, svcErrs[i])
		}
	}
	foldResilience(row, proxies, mcs)
	return nil
}

func foldResilience(row *ResilienceRow, proxies []*tcpchaos.Proxy, mcs []*metrics.Collector) {
	for _, px := range proxies {
		row.Kills += px.Kills()
	}
	for _, mc := range mcs {
		s := mc.Snapshot()
		row.Reconnects += s.Reconnects
		row.HeartbeatsMissed += s.HeartbeatsMissed
		row.DrainFlushedBytes += s.DrainFlushedBytes
		if s.SendQDepthPeak > row.SendQDepthPeak {
			row.SendQDepthPeak = s.SendQDepthPeak
		}
	}
	row.Seeds++
}

// ResilienceAnalysis runs the transport-resilience panel: each protocol
// plays full games over real loopback TCP while chaos proxies kill every
// connection after a seeded 512 B - 2 KiB budget, and the session layer's
// reconnect/resume machinery absorbs the cuts. Protocols defaults to the
// paper's four (MSYNC behaves like BSYNC/MSYNC2 here); seeds defaults to
// {7, 13, 21} — a subset of the CI chaos matrix.
func ResilienceAnalysis(protos []Protocol, seeds []int64) ([]ResilienceRow, error) {
	if len(protos) == 0 {
		protos = PaperProtocols
	}
	if len(seeds) == 0 {
		seeds = []int64{7, 13, 21}
	}
	rows := make([]ResilienceRow, 0, len(protos))
	for _, p := range protos {
		row := ResilienceRow{Protocol: p}
		start := time.Now()
		for _, seed := range seeds {
			var err error
			switch p {
			case BSYNC, MSYNC, MSYNC2:
				err = runResilienceLookahead(p, seed, &row)
			case EC:
				err = runResilienceEC(seed, &row)
			default:
				return nil, fmt.Errorf("resilience: protocol %q has no TCP runner", p)
			}
			if err != nil {
				return nil, err
			}
		}
		row.Wall = time.Since(start)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderResilience formats the panel as a table.
func RenderResilience(rows []ResilienceRow) string {
	var b strings.Builder
	b.WriteString("Transport resilience: full games over real TCP, every connection killed after a seeded 512 B - 2 KiB budget\n")
	fmt.Fprintf(&b, "%8s %6s %6s %10s %9s %10s %12s %9s\n",
		"proto", "seeds", "kills", "reconnects", "hb-missed", "sendq-peak", "drain-bytes", "wall")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8s %6d %6d %10d %9d %10d %12d %9s\n",
			r.Protocol, r.Seeds, r.Kills, r.Reconnects, r.HeartbeatsMissed,
			r.SendQDepthPeak, r.DrainFlushedBytes,
			r.Wall.Round(time.Millisecond))
	}
	return b.String()
}
