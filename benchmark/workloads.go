package main

import (
	"errors"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"sdso/internal/game"
	"sdso/internal/harness"
	"sdso/internal/metrics"
	"sdso/internal/netmodel"
	"sdso/internal/protocol/ec"
	"sdso/internal/protocol/lookahead"
	"sdso/internal/transport"
	"sdso/internal/vtime"
)

// watchdog bounds one game; a game that exceeds it has its network closed
// and all its players counted as failed.
const watchdog = 60 * time.Second

// netKind selects the substrate a workload's players talk over.
type netKind int

const (
	memNet netKind = iota // transport.NewMemNetwork, real goroutines
	tcpNet                // loopback TCP full mesh, real sockets
	simNet                // vtime + netmodel 10 Mbps cluster (EC only)
)

// workload is one closed-loop workload: n players, each blocking on its
// rendezvous partners, so the client count is n and there is no offered
// rate. The program under test receives only the game.Config built here.
type workload struct {
	name, why string
	n, ticks  int
	// seeds is how many games one pass plays: -seed B plays the disjoint
	// block of game seeds B*seeds .. B*seeds+seeds-1, so two runs with
	// different seeds share no game. Cheap games play more seeds, which
	// averages out how differently single games unfold.
	seeds    int
	world    func(n int) game.Config
	net      netKind
	proto    harness.Protocol
	delta    bool
	interest bool
	shards   int
	// warm is the untimed warm-up passes. maxProbes caps the probe passes
	// of an untraced run and maxPairs the untraced+traced pass pairs of a
	// traced run; below the caps --seconds decides.
	warm, maxProbes, maxPairs int
}

// workloads returns the suite. n > 0 shrinks every workload to n players
// (the smoke tests use 4); 0 keeps the published sizes.
func workloads(n int) []*workload {
	size := func(def int) int {
		if n > 0 {
			return n
		}
		return def
	}
	def := func(n int) game.Config { return game.DefaultConfig(n, 1) }
	return []*workload{
		{
			name: "bsync_mem_n128",
			why:  "Full-membership broadcast over channels: core.Exchange (encode, apply, malloc, map writes) carries the run and transport is a queue append.",
			n:    size(128), ticks: 60, seeds: 8, world: def, net: memNet,
			proto: harness.BSYNC, delta: true,
			warm: 1, maxProbes: 40, maxPairs: 8,
		},
		{
			name: "msync2_gated_mem_n64",
			why:  "Same layers used the other way: interest and shard gates cut fanout ~7x, so withheld-write buffering, interest refresh and decide carry the run.",
			n:    size(64), ticks: 30, seeds: 8, world: harness.InterestWorld, net: memNet,
			proto: harness.MSYNC2, delta: true, interest: true, shards: 16,
			warm: 1, maxProbes: 40, maxPairs: 8,
		},
		{
			name: "bsync_tcp_n8",
			why:  "Real loopback sockets: TCP flush, read loops and syscalls do the work and core is small; loopback only, no link rate is claimed.",
			n:    size(8), ticks: 20, seeds: 16, world: def, net: tcpNet,
			proto: harness.BSYNC,
			// 16 games x 28 connections x (1 + 2 + 12) passes stay inside
			// connBudget; at connsPerSecond the run lasts 22 s.
			warm: 1, maxProbes: 12, maxPairs: 3,
		},
		{
			name: "ec_sim_n16",
			why:  "The paper's entry-consistency baseline on the simulated 10 Mbps cluster: the same layers used pull-wise; vtime, protocol/ec and lockmgr dominate.",
			n:    size(16), ticks: 40, seeds: 64, world: def, net: simNet,
			proto: harness.EC,
			// A probe pass takes 0.16 s: 40 of them are enough, and the run's
			// 10 s leave the time limit to the other three.
			warm: 2, maxProbes: 40, maxPairs: 12,
		},
	}
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads(0) {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// gameConfig is the only input the program under test receives.
func (w *workload) gameConfig(seed int64, ticks int) game.Config {
	g := w.world(w.n)
	g.Seed = seed
	g.MaxTicks = ticks
	return g
}

// simConfig is the workload's protocol and feature configuration on the
// simulated cluster: the measured run itself for ec_sim_n16, the virtual
// replay behind virt_ms_per_mod for the real-transport workloads.
func (w *workload) simConfig(g game.Config) harness.Config {
	return harness.Config{
		Game: g, Protocol: w.proto,
		DeltaEncode: w.delta, Interest: w.interest, Shards: w.shards,
	}
}

func (w *workload) playerConfig(g game.Config, ep transport.Endpoint, mc *metrics.Collector) lookahead.PlayerConfig {
	variant := lookahead.BSYNC
	if w.proto == harness.MSYNC2 {
		variant = lookahead.MSYNC2
	}
	return lookahead.PlayerConfig{
		Game: g, Protocol: variant, Endpoint: ep, Metrics: mc,
		DeltaEncode: w.delta, Interest: w.interest, Shards: w.shards,
	}
}

// played is the outcome of one game. The window runs from the first
// RunPlayer (or harness.Run) call to the last return; network construction
// and teardown are outside it.
type played struct {
	wall           time.Duration
	cpu            time.Duration
	mallocs, bytes uint64
	gcs            uint32
	stats          []game.TeamStats
	snaps          []metrics.Snapshot
	errs           []error // per player
	virtMs         float64 // simNet only: the run's own Figure-5 value
	meshRetries    int
}

func (p *played) pticks() int {
	t := 0
	for _, s := range p.snaps {
		t += s.Ticks
	}
	return t
}

// window samples the clock and the allocator around a game.
type window struct {
	t0  time.Time
	cpu time.Duration
	ms  runtime.MemStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (w *window) open() {
	runtime.ReadMemStats(&w.ms)
	w.cpu = cpuTime()
	w.t0 = time.Now()
}

func (w *window) close(p *played) {
	p.wall = time.Since(w.t0)
	p.cpu = cpuTime() - w.cpu
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.mallocs = ms.Mallocs - w.ms.Mallocs
	p.bytes = ms.TotalAlloc - w.ms.TotalAlloc
	p.gcs = ms.NumGC - w.ms.NumGC
}

// play runs one game of g, traced through tr when tr is non-nil.
func (w *workload) play(g game.Config, tr *tracer) *played {
	if w.net == simNet {
		if tr == nil {
			return w.playSim(g)
		}
		return w.playSimTraced(g, tr)
	}
	return w.playReal(g, tr)
}

// playReal runs RunPlayer x n as goroutines over the mem network or a
// loopback TCP mesh.
func (w *workload) playReal(g game.Config, tr *tracer) *played {
	n := w.n
	p := &played{stats: make([]game.TeamStats, n), errs: make([]error, n)}
	mcs := make([]*metrics.Collector, n)
	for i := range mcs {
		mcs[i] = metrics.NewCollector()
	}
	eps := make([]transport.Endpoint, n)
	var closeNet func()
	if w.net == tcpNet {
		mesh, retries, err := dialMesh(n, mcs)
		p.meshRetries = retries
		if err != nil {
			for i := range p.errs {
				p.errs[i] = err
			}
			return p
		}
		for i, ep := range mesh {
			eps[i] = ep
		}
		closeNet = func() { closeMesh(mesh) }
	} else {
		net := transport.NewMemNetwork(n)
		for i := range eps {
			eps[i] = net.Endpoint(i)
		}
		closeNet = net.Close
	}
	if tr != nil {
		for i := range eps {
			eps[i] = tr.wrap(eps[i])
		}
	}

	done := make(chan struct{}, n) // one send per player
	var win window
	win.open()
	for i := 0; i < n; i++ {
		i := i
		go func() {
			start := tr.now()
			p.stats[i], p.errs[i] = lookahead.RunPlayer(w.playerConfig(g, eps[i], mcs[i]))
			tr.endPlayer(i, start)
			done <- struct{}{}
		}()
	}
	timeout := time.NewTimer(watchdog)
	defer timeout.Stop()
	expired := false
	for i := 0; i < n; i++ {
		select {
		case <-done:
		case <-timeout.C:
			// Closing the network unblocks every Recv with ErrClosed, so
			// the remaining players return (with errors) and are counted.
			expired = true
			closeNet()
			<-done
		}
	}
	win.close(p)
	closeNet()
	if expired {
		for i := range p.errs {
			p.errs[i] = errors.Join(p.errs[i], fmt.Errorf("game exceeded the %v watchdog", watchdog))
		}
	}
	for _, mc := range mcs {
		p.snaps = append(p.snaps, mc.Snapshot())
	}
	return p
}

// playSim runs the game through harness.Run on the simulated cluster.
func (w *workload) playSim(g game.Config) *played {
	p := &played{errs: make([]error, w.n)}
	var win window
	win.open()
	res, err := harness.Run(w.simConfig(g))
	win.close(p)
	if err != nil {
		for i := range p.errs {
			p.errs[i] = err
		}
		return p
	}
	p.stats, p.snaps = res.Stats, res.Metrics.Procs
	p.virtMs = harness.MetricNormalizedTime(res)
	return p
}

// playSimTraced is harness.Run's entry-consistency path with each
// application process's endpoint wrapped by the tracer; harness.Run builds
// its endpoints itself and offers no seam. The service processes are not
// players: their endpoints stay bare, which also keeps tracing within a
// tenth of a 26 us player-tick. TestTracedCountsMatchUntraced pins this
// to playSim.
func (w *workload) playSimTraced(g game.Config, tr *tracer) *played {
	n := w.n
	p := &played{stats: make([]game.TeamStats, n), errs: make([]error, n)}
	net := netmodel.Ethernet10Mbps()
	net.HostOf = func(proc int) int { return proc % n }
	var win window
	win.open()
	sim := vtime.NewSim(vtime.Config{Links: netmodel.NewCluster(net), Horizon: 10 * time.Minute})
	nodes := make([]*ec.Node, n)
	svcErrs := make([]error, n)
	mcs := make([]*metrics.Collector, n)
	for i := 0; i < n; i++ {
		i := i
		mcs[i] = metrics.NewCollector()
		sim.Spawn(func(*vtime.Proc) {
			start := tr.now()
			p.stats[i], p.errs[i] = nodes[i].RunApp()
			tr.endPlayer(i, start)
		})
	}
	for i := 0; i < n; i++ {
		i := i
		sim.Spawn(func(*vtime.Proc) { svcErrs[i] = nodes[i].RunService() })
	}
	var err error
	for i := 0; i < n && err == nil; i++ {
		size := transport.FixedSize(2048)
		nodes[i], err = ec.New(ec.NodeConfig{
			Game:           g,
			App:            tr.wrap(transport.NewSimEndpoint(sim.Proc(i), 2*n, size)),
			Svc:            transport.NewSimEndpoint(sim.Proc(n+i), 2*n, size),
			Metrics:        mcs[i],
			ComputePerTick: 50 * time.Microsecond,
		})
	}
	if err == nil {
		err = sim.Run()
	}
	win.close(p)
	for i := range p.errs {
		p.errs[i] = errors.Join(p.errs[i], svcErrs[i], err)
	}
	res := &harness.Result{}
	for _, mc := range mcs {
		res.Metrics.Procs = append(res.Metrics.Procs, mc.Snapshot())
	}
	p.snaps = res.Metrics.Procs
	p.virtMs = harness.MetricNormalizedTime(res)
	return p
}
