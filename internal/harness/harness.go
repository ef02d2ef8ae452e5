// Package harness runs the paper's experiments: complete games under each
// consistency protocol on the simulated 10 Mbps workstation cluster
// (internal/vtime + internal/netmodel), collecting the measurements behind
// Figures 5-8. It is the programmatic core used by cmd/sdso-bench and the
// integration tests.
package harness

import (
	"fmt"
	"time"

	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/netmodel"
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
	// Net describes the simulated cluster network; zero value uses the
	// paper's 10 Mbps Ethernet model.
	Net netmodel.Params
	// MsgSize fixes the wire size charged per message; the paper reports
	// both control and data messages averaging 2048 bytes. Zero means
	// 2048.
	MsgSize int
	// ComputePerTick is the application work per game tick on each node.
	// Zero means 50µs (the paper: "only a minimal amount of local
	// processing").
	ComputePerTick time.Duration
	// Horizon bounds virtual time (guard against runaway runs). Zero
	// means 10 minutes of virtual time.
	Horizon time.Duration
	// SuspectTimeout enables the runtime's failure-detection and
	// retransmission machinery (the lookahead rendezvous timeout, EC's
	// suspect timeout). Required when Net is lossy (DropProb > 0): a
	// dropped SYNC or lock message would otherwise deadlock the run.
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
}

func (c Config) withDefaults() Config {
	if c.Net.BandwidthBps == 0 && c.Net.Propagation == 0 {
		c.Net = netmodel.Ethernet10Mbps()
	}
	if c.MsgSize == 0 {
		c.MsgSize = 2048
	}
	if c.ComputePerTick == 0 {
		c.ComputePerTick = 50 * time.Microsecond
	}
	if c.Horizon == 0 {
		c.Horizon = 10 * time.Minute
	}
	return c
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
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	switch cfg.Protocol {
	case BSYNC, MSYNC, MSYNC2:
		return runLookahead(cfg)
	case EC:
		return runECVtime(cfg)
	case LRC:
		return runLRCVtime(cfg)
	case Causal:
		return runCausalVtime(cfg)
	case Central:
		return runCentralVtime(cfg)
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

func runLookahead(cfg Config) (*Result, error) {
	n := cfg.Game.Teams
	sim := vtime.NewSim(vtime.Config{
		Links:   netmodel.NewCluster(cfg.Net),
		Horizon: cfg.Horizon,
	})
	collectors := make([]*metrics.Collector, n)
	stats := make([]game.TeamStats, n)
	errs := make([]error, n)
	eps := make([]*transport.SimEndpoint, n)
	touched := make([]int, n)

	for i := 0; i < n; i++ {
		i := i
		collectors[i] = metrics.NewCollector()
		sim.Spawn(func(p *vtime.Proc) {
			stats[i], errs[i] = lookahead.RunPlayer(lookahead.PlayerConfig{
				Snapshot:          func(st *store.Store) { touched[i] = st.Materialized() },
				Game:              cfg.Game,
				Protocol:          lookaheadVariant(cfg.Protocol),
				Endpoint:          eps[i],
				Metrics:           collectors[i],
				ComputePerTick:    cfg.ComputePerTick,
				RendezvousTimeout: cfg.SuspectTimeout,
				DeltaEncode:       cfg.DeltaEncode,
				MaxBatchTicks:     cfg.MaxBatchTicks,
				Interest:          cfg.Interest,
				Shards:            cfg.Shards,
			})
		})
	}
	for i := 0; i < n; i++ {
		eps[i] = transport.NewSimEndpoint(sim.Proc(i), n, transport.FixedSize(cfg.MsgSize))
	}
	if err := sim.Run(); err != nil {
		return nil, fmt.Errorf("%s simulation: %w", cfg.Protocol, err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s process %d: %w", cfg.Protocol, i, err)
		}
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
