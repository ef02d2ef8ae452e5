// Package harness runs the paper's experiments: complete games under each
// consistency protocol on the simulated 10 Mbps workstation cluster
// (internal/vtime + internal/netmodel), collecting the measurements behind
// Figures 5-8. It is the programmatic core used by cmd/sdso-bench and the
// integration tests.
//
// Every run — plain (Run), fault-injected (RunChaos) and oracle-checked
// (RunChecked) — plays on one cluster builder, simCluster: it owns the
// simulation and its links, gives each process one FixedSize(MsgSize)
// endpoint (optionally wrapped, e.g. by a faultnet plan), spawns the
// processes in process order and reports the first error with its role.
// Config maps onto a lookahead player and an EC node in one place each
// (Config.player, Config.ecNode); the runners set only what they add.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/netmodel"
	"sdso/internal/protocol/ec"
	"sdso/internal/protocol/lookahead"
	"sdso/internal/store"
	"sdso/internal/transport"
	"sdso/internal/vtime"
)

// Protocol names every consistency protocol the harness can run.
type Protocol string

// Protocols.
const (
	BSYNC  Protocol = "BSYNC"
	MSYNC  Protocol = "MSYNC"
	MSYNC2 Protocol = "MSYNC2"
	EC     Protocol = "EC"
	LRC    Protocol = "LRC"
	Causal Protocol = "CAUSAL"
	// Central is the §2.1 client-server alternative: one authoritative
	// server process holds the whole shared environment.
	Central Protocol = "CENTRAL"
)

// LookaheadProtocols are the protocols built on the S-DSO exchange engine.
var LookaheadProtocols = []Protocol{BSYNC, MSYNC, MSYNC2}

// PaperProtocols are the four protocols in the paper's evaluation.
var PaperProtocols = []Protocol{BSYNC, MSYNC, MSYNC2, EC}

// Config describes one experiment run.
type Config struct {
	// Game is the application configuration (teams = processes).
	Game game.Config
	// Protocol selects the consistency protocol.
	Protocol Protocol
	// MsgSize fixes the wire size charged per message; the paper reports
	// both control and data messages averaging 2048 bytes. Zero means
	// 2048.
	MsgSize int
	// SuspectTimeout enables the runtime's failure-detection and
	// retransmission machinery (the lookahead rendezvous timeout, EC's
	// suspect timeout). Runs that lose messages (a faultnet plan) need it:
	// a dropped SYNC or lock message would otherwise deadlock the run.
	// Zero leaves detection off, as in the paper's fault-free testbed.
	SuspectTimeout time.Duration
	// DeltaEncode switches the lookahead protocols' DATA payloads to the
	// delta-capable record encoding (see core.Config.DeltaEncode). Off by
	// default; only the lookahead protocols honor it.
	DeltaEncode bool
	// MaxBatchTicks folds up to this many ticks' modifications into one
	// BSYNC exchange frame (see lookahead.PlayerConfig.MaxBatchTicks).
	// Values below 2 mean no batching; only BSYNC honors it.
	MaxBatchTicks int64
	// Interest turns on spatial interest management (see
	// lookahead.PlayerConfig.Interest); only the lookahead protocols
	// honor it.
	Interest bool
	// Shards partitions the world into this many regions and intersects
	// the DATA fanout with shard residency (see
	// lookahead.PlayerConfig.Shards); only the lookahead protocols honor
	// it. Zero or one means unsharded.
	Shards int

	// wrap, when set, stands outermost between each process and its
	// endpoint, over whatever the runner wraps it in (a faultnet plan).
	wrap func(transport.Endpoint) transport.Endpoint
}

// Every simulated run plays on the paper's testbed (netmodel.Ethernet10Mbps)
// with these constants.
const (
	// computePerTick is the application work per game tick on each node
	// (the paper: "only a minimal amount of local processing").
	computePerTick = 50 * time.Microsecond
	// horizon bounds virtual time, a guard against runaway runs.
	horizon = 10 * time.Minute
)

func (c Config) withDefaults() Config {
	if c.MsgSize == 0 {
		c.MsgSize = 2048
	}
	return c
}

// player maps the run onto one lookahead player on ep.
func (c Config) player(ep transport.Endpoint, mc *metrics.Collector) lookahead.PlayerConfig {
	return lookahead.PlayerConfig{
		Game:              c.Game,
		Protocol:          lookaheadVariant(c.Protocol),
		Endpoint:          ep,
		Metrics:           mc,
		ComputePerTick:    computePerTick,
		RendezvousTimeout: c.SuspectTimeout,
		DeltaEncode:       c.DeltaEncode,
		MaxBatchTicks:     c.MaxBatchTicks,
		Interest:          c.Interest,
		Shards:            c.Shards,
	}
}

// ecNode maps the run onto one EC node: an application on app and its
// lock-manager/object service on svc.
func (c Config) ecNode(app, svc transport.Endpoint, mc *metrics.Collector) ec.NodeConfig {
	return ec.NodeConfig{
		Game:           c.Game,
		App:            app,
		Svc:            svc,
		Metrics:        mc,
		ComputePerTick: computePerTick,
		SuspectTimeout: c.SuspectTimeout,
	}
}

// Result is the outcome of one experiment run.
type Result struct {
	Config  Config
	Stats   []game.TeamStats
	Metrics metrics.Group
	// VirtualDuration is the maximum process completion time.
	VirtualDuration time.Duration
	// Touched is, by team, how many objects of its replica the process ever
	// held a record of its own for (store.Materialized); nil for the
	// protocols whose run does not hand back a store.
	Touched []int
}

// Run executes one experiment and returns its measurements.
func Run(cfg Config) (*Result, error) { return run(cfg, simCluster{}) }

// run plays cfg on base, a cluster each runner completes with its own
// layout; a base with jitter is how tests reorder a plain run's deliveries.
func run(cfg Config, base simCluster) (*Result, error) {
	cfg = cfg.withDefaults()
	switch cfg.Protocol {
	case BSYNC, MSYNC, MSYNC2:
		return runLookahead(cfg, base)
	case EC, LRC:
		return runECVtime(cfg, base)
	case Causal:
		return runCausalVtime(cfg, base)
	case Central:
		return runCentralVtime(cfg, base)
	default:
		return nil, fmt.Errorf("harness: unknown protocol %q", cfg.Protocol)
	}
}

func lookaheadVariant(p Protocol) lookahead.Protocol {
	switch p {
	case MSYNC:
		return lookahead.MSYNC
	case MSYNC2:
		return lookahead.MSYNC2
	default:
		return lookahead.BSYNC
	}
}

// simCluster is the simulated workstation cluster a run plays on: procs
// processes on the paper's 10 Mbps Ethernet, each with one
// FixedSize(MsgSize) endpoint.
type simCluster struct {
	name  string // error prefix, e.g. "BSYNC" or "EC chaos"
	procs int
	// nodes > 0 lays the processes out as node applications 0..nodes-1
	// and their services nodes..2*nodes-1, service i co-located with
	// application i, so requests to the local lock manager take the cheap
	// loopback path (probability 1/n, as in the paper).
	nodes int
	// jitter > 0 delays every delivery by a seeded offset below it.
	jitter time.Duration
	seed   int64
	// wrap, when set, stands between each process and its endpoint.
	wrap func(proc int, ep transport.Endpoint) transport.Endpoint
	// setup runs once every endpoint exists, before the clock starts.
	setup func(eps []transport.Endpoint) error
	// role names a process in errors; nil means "process i", or "app i" /
	// "service i" when nodes > 0.
	role func(proc int) string
}

// play spawns body once per process, in process order, and runs the
// simulation. It returns the first process error in process order or, when
// the simulation itself fails (a deadlock, the horizon), that failure
// joined with the process errors that came before it, in process order: a
// process that failed is often why the others waited. A failed run ends
// every process still waiting, which then sees its endpoint closed; that
// error says nothing of the failure and is left out.
func (c simCluster) play(cfg Config, body func(proc int, ep transport.Endpoint) error) error {
	net := netmodel.Ethernet10Mbps()
	if c.nodes > 0 {
		net.HostOf = func(proc int) int { return proc % c.nodes }
	}
	sim := vtime.NewSim(vtime.Config{
		Links:   vtime.Jitter(netmodel.NewCluster(net), uint64(c.seed), c.jitter),
		Horizon: horizon,
	})
	eps := make([]transport.Endpoint, c.procs)
	errs := make([]error, c.procs)
	for i := range eps {
		sim.Spawn(func(*vtime.Proc) { errs[i] = body(i, eps[i]) })
	}
	for i := range eps {
		eps[i] = transport.NewSimEndpoint(sim.Proc(i), c.procs, transport.FixedSize(cfg.MsgSize))
		if c.wrap != nil {
			eps[i] = c.wrap(i, eps[i])
		}
		if cfg.wrap != nil {
			eps[i] = cfg.wrap(eps[i])
		}
	}
	if c.setup != nil {
		if err := c.setup(eps); err != nil {
			return err
		}
	}
	var failed []error
	if err := sim.Run(); err != nil {
		failed = append(failed, fmt.Errorf("%s simulation: %w", c.name, err))
	}
	for i, err := range errs {
		if err == nil || len(failed) > 0 && errors.Is(err, transport.ErrClosed) {
			continue
		}
		role := fmt.Sprintf("process %d", i)
		switch {
		case c.role != nil:
			role = c.role(i)
		case c.nodes > 0 && i < c.nodes:
			role = fmt.Sprintf("app %d", i)
		case c.nodes > 0:
			role = fmt.Sprintf("service %d", i-c.nodes)
		}
		err = fmt.Errorf("%s %s: %w", c.name, role, err)
		if len(failed) == 0 {
			return err // the run finished: its first process error
		}
		failed = append(failed, err)
	}
	return errors.Join(failed...)
}

// nodeBody plays process proc of a paired layout of n lock-protocol nodes
// on node: its application (recording the team's stats) or its service.
func nodeBody(node *ec.Node, proc, n int, stats []game.TeamStats) (err error) {
	if proc < n {
		stats[proc], err = node.RunApp()
		return err
	}
	return node.RunService()
}

func newCollectors(n int) []*metrics.Collector {
	mcs := make([]*metrics.Collector, n)
	for i := range mcs {
		mcs[i] = metrics.NewCollector()
	}
	return mcs
}

// runAll runs every input through run on a pool of workers goroutines
// (<= 0 means GOMAXPROCS) and returns the results in input order; on error
// the first failing input in input order is reported.
func runAll[C, R any](in []C, workers int, run func(C) (R, error)) ([]R, error) {
	out := make([]R, len(in))
	errs := make([]error, len(in))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(in)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				out[i], errs[i] = run(in[i])
			}
		}()
	}
	for i := range in {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func runLookahead(cfg Config, c simCluster) (*Result, error) {
	n := cfg.Game.Teams
	collectors := newCollectors(n)
	stats := make([]game.TeamStats, n)
	touched := make([]int, n)
	c.name, c.procs = string(cfg.Protocol), n
	err := c.play(cfg, func(i int, ep transport.Endpoint) (err error) {
		pc := cfg.player(ep, collectors[i])
		pc.Snapshot = func(st *store.Store) { touched[i] = st.Materialized() }
		stats[i], err = lookahead.RunPlayer(pc)
		return err
	})
	if err != nil {
		return nil, err
	}
	res := collect(cfg, stats, collectors)
	res.Touched = touched
	return res, nil
}

func collect(cfg Config, stats []game.TeamStats, collectors []*metrics.Collector) *Result {
	res := &Result{Config: cfg, Stats: stats}
	var maxT time.Duration
	for _, c := range collectors {
		s := c.Snapshot()
		res.Metrics.Procs = append(res.Metrics.Procs, s)
		if s.ExecTime > maxT {
			maxT = s.ExecTime
		}
	}
	res.VirtualDuration = maxT
	return res
}
