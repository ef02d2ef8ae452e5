// Checked runs: complete games executed with tracing on, every message
// delivery perturbed by seeded jitter (one seed = one explored schedule),
// optionally under an ambient faultnet drop/dup/delay plan, and the
// recorded histories handed to the internal/check oracle afterwards. This
// is the programmatic core of cmd/sdso-check and the CI oracle job.
package harness

import (
	"fmt"
	"time"

	"sdso/internal/check"
	"sdso/internal/faultnet"
	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/netmodel"
	"sdso/internal/protocol/ec"
	"sdso/internal/protocol/lookahead"
	"sdso/internal/store"
	"sdso/internal/trace"
	"sdso/internal/transport"
	"sdso/internal/vtime"
)

// CheckedConfig describes one oracle-checked run.
type CheckedConfig struct {
	// Protocol is one of the paper's four protocols.
	Protocol Protocol
	// Seed drives the delivery-order jitter and, when Faults is set, the
	// fault plan.
	Seed int64
	// Teams is the number of players; zero means 4.
	Teams int
	// Ticks bounds the game; zero means 48.
	Ticks int
	// Jitter is the maximum per-message delivery perturbation; zero
	// means 2ms (comparable to one 2 KB frame's service time on the
	// 10 Mbps cluster, enough to reorder cross-link traffic).
	Jitter time.Duration
	// Faults layers ambient message faults (drop/dup/delay) over the
	// jittered links and turns failure detection on.
	Faults bool
	// FaultRates overrides the ambient rates; nil with Faults set means
	// 1% drop, 1% dup, 2% delay of 2 sends.
	FaultRates *faultnet.LinkFaults
	// DeltaEncode runs the lookahead protocols with delta-encoded
	// exchanges (see core.Config.DeltaEncode), proving the oracle's
	// invariants hold over the delta path too.
	DeltaEncode bool
	// MaxBatchTicks runs BSYNC with tick batching (see
	// lookahead.PlayerConfig.MaxBatchTicks), proving the oracle's
	// invariants hold over batched schedules.
	MaxBatchTicks int64
	// Interest runs the lookahead protocols with spatial interest
	// management on (see lookahead.PlayerConfig.Interest) and arms the
	// oracle's spatial-safety invariants: withholds must stay outside the
	// sensing radius, and no process may miss an update for an object
	// inside its radius once the interest machinery has had time to
	// deliver it.
	Interest bool
	// Shards runs the lookahead protocols with the world partitioned and
	// the DATA fanout intersected with shard residency (see
	// lookahead.PlayerConfig.Shards). The residency term and the interest
	// term are terms of one gate behind one pair of flush backstops, so
	// the same spatial-safety slack applies; zero or one leaves the run
	// unsharded.
	Shards int
}

func (c CheckedConfig) withCheckedDefaults() CheckedConfig {
	if c.Teams == 0 {
		c.Teams = 4
	}
	if c.Ticks == 0 {
		c.Ticks = 48
	}
	if c.Jitter == 0 {
		c.Jitter = 2 * time.Millisecond
	}
	return c
}

func (c CheckedConfig) faultRates() faultnet.LinkFaults {
	if c.FaultRates != nil {
		return *c.FaultRates
	}
	return faultnet.LinkFaults{DropProb: 0.01, DupProb: 0.01, DelayProb: 0.02, DelaySends: 2}
}

// checkOptions maps the protocol and scenario to the oracle's option set.
func checkOptions(cfg CheckedConfig, g game.Config) check.Options {
	opts := check.Options{
		Radius: g.InteractionRadius(),
		ObjPos: func(obj int64) (int, int) {
			p := g.PosOf(store.ID(obj))
			return p.X, p.Y
		},
		Lossy: cfg.Faults,
	}
	switch cfg.Protocol {
	case BSYNC:
		opts.Convergence = true
	case MSYNC:
		opts.Spatial = true
		opts.Convergence = true
	case MSYNC2:
		opts.Spatial = true
		opts.DeliveryBound = true
		opts.Convergence = true
	case EC:
		opts.EC = true
	}
	if cfg.Interest || cfg.Shards > 1 {
		// The gate's interest and shard terms withhold under every
		// lookahead protocol (BSYNC included), so each withhold must
		// honor the sensing radius, and every process must see updates
		// to objects inside its radius within the interest machinery's
		// delivery budget: up to InterestMaxStretch stretched batch
		// periods for the flush-triggering rendezvous, doubled for the
		// fetch round trip and beacon staleness, plus a constant for
		// delivery jitter. Both terms sit behind the gate's one pair of
		// flush backstops — by construction, not by copying slacks — so
		// the same slack bounds either term's withholds.
		base := cfg.MaxBatchTicks
		if base < 1 {
			base = 1
		}
		opts.Spatial = true
		opts.InterestSafety = true
		opts.InterestSlack = 2*lookahead.InterestMaxStretch*base + 8
	}
	return opts
}

// RunChecked executes one traced game under the scenario's delivery
// schedule and replays the history through the oracle.
func RunChecked(cfg CheckedConfig) (*check.Report, error) {
	cfg = cfg.withCheckedDefaults()
	if (cfg.Interest || cfg.Shards > 1) && cfg.Protocol == EC {
		return nil, fmt.Errorf("harness: interest management and sharding apply to the lookahead protocols, not %q", cfg.Protocol)
	}
	switch cfg.Protocol {
	case BSYNC, MSYNC, MSYNC2:
		return runCheckedLookahead(cfg)
	case EC:
		return runCheckedEC(cfg)
	default:
		return nil, fmt.Errorf("harness: checked runs support the paper's four protocols, not %q", cfg.Protocol)
	}
}

func runCheckedLookahead(cfg CheckedConfig) (*check.Report, error) {
	n := cfg.Teams
	g := game.DefaultConfig(n, 1)
	g.MaxTicks = cfg.Ticks
	g.Seed = cfg.Seed

	base := Config{Game: g, Protocol: cfg.Protocol}.withDefaults()
	sim := vtime.NewSim(vtime.Config{
		Links:   vtime.Jitter(netmodel.NewCluster(base.Net), uint64(cfg.Seed), cfg.Jitter),
		Horizon: base.Horizon,
	})

	var plan *faultnet.Plan
	timeout := time.Duration(0)
	if cfg.Faults {
		plan = &faultnet.Plan{Seed: cfg.Seed, Default: cfg.faultRates()}
		timeout = 5 * time.Millisecond
	}

	recs := make([]*trace.Recorder, n)
	stores := make([]*store.Store, n)
	stats := make([]game.TeamStats, n)
	errs := make([]error, n)
	eps := make([]transport.Endpoint, n)

	for i := 0; i < n; i++ {
		i := i
		recs[i] = trace.NewRecorder(i)
		sim.Spawn(func(p *vtime.Proc) {
			stats[i], errs[i] = lookahead.RunPlayer(lookahead.PlayerConfig{
				Game:              g,
				Protocol:          lookaheadVariant(cfg.Protocol),
				Endpoint:          eps[i],
				ComputePerTick:    base.ComputePerTick,
				RendezvousTimeout: timeout,
				DeltaEncode:       cfg.DeltaEncode,
				MaxBatchTicks:     cfg.MaxBatchTicks,
				Interest:          cfg.Interest,
				Shards:            cfg.Shards,
				Trace:             recs[i],
				Snapshot:          func(st *store.Store) { stores[i] = st.Clone() },
			})
		})
	}
	for i := 0; i < n; i++ {
		inner := transport.NewSimEndpoint(sim.Proc(i), n, transport.FixedSize(base.MsgSize))
		if plan != nil {
			eps[i] = plan.Wrap(inner, metrics.NewCollector())
		} else {
			eps[i] = inner
		}
	}
	if err := sim.Run(); err != nil {
		return nil, fmt.Errorf("%s checked simulation: %w", cfg.Protocol, err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s checked process %d: %w", cfg.Protocol, i, err)
		}
	}

	h := check.History{
		Procs:   make([][]trace.Event, n),
		Stores:  stores,
		Crashed: make([]bool, n),
	}
	for i, r := range recs {
		h.Procs[i] = r.Events()
	}
	return check.Analyze(h, checkOptions(cfg, g)), nil
}

func runCheckedEC(cfg CheckedConfig) (*check.Report, error) {
	n := cfg.Teams
	g := game.DefaultConfig(n, 1)
	g.MaxTicks = cfg.Ticks
	g.Seed = cfg.Seed

	base := Config{Game: g, Protocol: EC}.withDefaults()
	net := base.Net
	net.HostOf = func(proc int) int { return proc % n }
	sim := vtime.NewSim(vtime.Config{
		Links:   vtime.Jitter(netmodel.NewCluster(net), uint64(cfg.Seed), cfg.Jitter),
		Horizon: base.Horizon,
	})

	var plan *faultnet.Plan
	timeout := time.Duration(0)
	if cfg.Faults {
		plan = &faultnet.Plan{Seed: cfg.Seed, Default: cfg.faultRates()}
		timeout = 5 * time.Millisecond
		// A node's application and service are co-located, and local IPC
		// does not lose messages; faulting it would leave a service
		// waiting forever for its own application's shutdown (which,
		// unlike remote traffic, has no retransmission path).
		plan.Links = make(map[[2]int]faultnet.LinkFaults, 2*n)
		for i := 0; i < n; i++ {
			plan.Links[[2]int{i, n + i}] = faultnet.LinkFaults{}
			plan.Links[[2]int{n + i, i}] = faultnet.LinkFaults{}
		}
	}

	// Processes 0..n-1 are the applications, n..2n-1 the services; each
	// side gets its own recorder so the oracle sees 2n histories.
	recs := make([]*trace.Recorder, 2*n)
	nodes := make([]*ec.Node, n)
	stats := make([]game.TeamStats, n)
	appErrs := make([]error, n)
	svcErrs := make([]error, n)
	eps := make([]transport.Endpoint, 2*n)

	for i := 0; i < n; i++ {
		i := i
		recs[i] = trace.NewRecorder(i)
		recs[n+i] = trace.NewRecorder(n + i)
		sim.Spawn(func(p *vtime.Proc) { stats[i], appErrs[i] = nodes[i].RunApp() })
	}
	for i := 0; i < n; i++ {
		i := i
		sim.Spawn(func(p *vtime.Proc) { svcErrs[i] = nodes[i].RunService() })
	}
	wrap := func(proc int) transport.Endpoint {
		inner := transport.NewSimEndpoint(sim.Proc(proc), 2*n, transport.FixedSize(base.MsgSize))
		if plan != nil {
			return plan.Wrap(inner, metrics.NewCollector())
		}
		return inner
	}
	for i := 0; i < n; i++ {
		eps[i] = wrap(i)
		eps[n+i] = wrap(n + i)
		node, err := ec.New(ec.NodeConfig{
			Game:           g,
			App:            eps[i],
			Svc:            eps[n+i],
			ComputePerTick: base.ComputePerTick,
			SuspectTimeout: timeout,
			AppTrace:       recs[i],
			SvcTrace:       recs[n+i],
		})
		if err != nil {
			return nil, err
		}
		nodes[i] = node
	}
	if err := sim.Run(); err != nil {
		return nil, fmt.Errorf("EC checked simulation: %w", err)
	}
	for i := 0; i < n; i++ {
		if appErrs[i] != nil {
			return nil, fmt.Errorf("EC checked app %d: %w", i, appErrs[i])
		}
		if svcErrs[i] != nil {
			return nil, fmt.Errorf("EC checked svc %d: %w", i, svcErrs[i])
		}
	}

	h := check.History{
		Procs:   make([][]trace.Event, 2*n),
		Stores:  make([]*store.Store, 2*n),
		Crashed: make([]bool, 2*n),
	}
	for i, r := range recs {
		h.Procs[i] = r.Events()
	}
	// EC replicas are interest-driven (a node only pulls what it locks),
	// so no store-equality claims apply; the stores stay nil and only the
	// event-log invariants are checked.
	return check.Analyze(h, checkOptions(cfg, g)), nil
}

// CheckedRunner adapts RunChecked into the explorer's Runner for one
// protocol, with faults using the default ambient rates.
func CheckedRunner(proto Protocol) check.Runner {
	return checkedRunner(proto, false)
}

// InterestCheckedRunner is CheckedRunner with spatial interest management
// (and the interest-safety oracle invariants) armed for every schedule.
// Only the lookahead protocols support it.
func InterestCheckedRunner(proto Protocol) check.Runner {
	return checkedRunner(proto, true)
}

func checkedRunner(proto Protocol, interest bool) check.Runner {
	return func(sc check.Scenario) (*check.Report, error) {
		return RunChecked(CheckedConfig{
			Protocol: proto,
			Seed:     sc.Seed,
			Teams:    sc.Teams,
			Ticks:    sc.Ticks,
			Faults:   sc.Faults,
			Interest: interest,
		})
	}
}

// ReproLine renders the sdso-check invocation that re-runs one scenario
// via the -repro flag: exactly that seed, nothing else.
func ReproLine(proto Protocol, sc check.Scenario) string {
	line := fmt.Sprintf("go run ./cmd/sdso-check -repro %d -protocols %s -teams %d -ticks %d",
		sc.Seed, proto, sc.Teams, sc.Ticks)
	if sc.Faults {
		line += " -fault-every 1"
	}
	return line
}
