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
	"sdso/internal/protocol/ec"
	"sdso/internal/protocol/lookahead"
	"sdso/internal/store"
	"sdso/internal/trace"
	"sdso/internal/transport"
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

	// wrap is Config.wrap for the checked run.
	wrap func(transport.Endpoint) transport.Endpoint
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
	case BSYNC, MSYNC, MSYNC2, EC:
	default:
		return nil, fmt.Errorf("harness: checked runs support the paper's four protocols, not %q", cfg.Protocol)
	}
	n := cfg.Teams
	g := game.DefaultConfig(n, 1)
	g.MaxTicks = cfg.Ticks
	g.Seed = cfg.Seed
	run := Config{Game: g, Protocol: cfg.Protocol, DeltaEncode: cfg.DeltaEncode,
		MaxBatchTicks: cfg.MaxBatchTicks, Interest: cfg.Interest, Shards: cfg.Shards, wrap: cfg.wrap}
	c := simCluster{name: string(cfg.Protocol) + " checked", procs: n, jitter: cfg.Jitter, seed: cfg.Seed}
	if cfg.Protocol == EC {
		c.procs, c.nodes = 2*n, n
	}
	if cfg.Faults {
		run.SuspectTimeout = 5 * time.Millisecond
		plan := &faultnet.Plan{Seed: cfg.Seed, Default: cfg.faultRates()}
		if cfg.Protocol == EC {
			// A node's application and service are co-located, and local
			// IPC does not lose messages; faulting it would leave a service
			// waiting forever for its own application's shutdown (which,
			// unlike remote traffic, has no retransmission path).
			plan.Links = make(map[[2]int]faultnet.LinkFaults, 2*n)
			for i := 0; i < n; i++ {
				plan.Links[[2]int{i, n + i}] = faultnet.LinkFaults{}
				plan.Links[[2]int{n + i, i}] = faultnet.LinkFaults{}
			}
		}
		c.wrap = func(_ int, ep transport.Endpoint) transport.Endpoint { return plan.Wrap(ep, metrics.NewCollector()) }
	}
	run = run.withDefaults()

	// Each process gets its own recorder; under EC the applications'
	// (0..n-1) and the services' (n..2n-1), so the oracle sees 2n
	// histories. EC replicas are interest-driven (a node only pulls what it
	// locks), so no store-equality claims apply: their stores stay nil and
	// only the event-log invariants are checked.
	h := check.History{
		Procs:   make([][]trace.Event, c.procs),
		Stores:  make([]*store.Store, c.procs),
		Crashed: make([]bool, c.procs),
	}
	recs := make([]*trace.Recorder, c.procs)
	for i := range recs {
		recs[i] = trace.NewRecorder(i)
	}
	stats := make([]game.TeamStats, n)
	body := func(i int, ep transport.Endpoint) (err error) {
		pc := run.player(ep, nil)
		pc.Trace = recs[i]
		pc.Snapshot = func(st *store.Store) { h.Stores[i] = st.Clone() }
		stats[i], err = lookahead.RunPlayer(pc)
		return err
	}
	if cfg.Protocol == EC {
		nodes := make([]*ec.Node, n)
		c.setup = func(eps []transport.Endpoint) (err error) {
			for i := range nodes {
				nc := run.ecNode(eps[i], eps[n+i], nil)
				nc.AppTrace, nc.SvcTrace = recs[i], recs[n+i]
				if nodes[i], err = ec.New(nc); err != nil {
					return err
				}
			}
			return nil
		}
		body = func(i int, _ transport.Endpoint) error { return nodeBody(nodes[i%n], i, n, stats) }
	}
	if err := c.play(run, body); err != nil {
		return nil, err
	}
	for i, r := range recs {
		h.Procs[i] = r.Events()
	}
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
