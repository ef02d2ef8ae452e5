// Chaos experiments: complete games run under injected faults — lossy,
// duplicating, delaying links and mid-game crash-stops — with the runtime's
// failure detection enabled. Everything (fault decisions included) is
// deterministic per seed on the simulated cluster, so a failing chaos run
// reproduces exactly from its ChaosConfig.
package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

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

// ChaosConfig describes one fault-injected experiment run.
type ChaosConfig struct {
	Config
	// Seed drives every fault decision (per-link streams are derived from
	// it, so one seed reproduces the whole run).
	Seed int64
	// Faults are ambient fault rates applied to every directed link.
	Faults faultnet.LinkFaults
	// CrashTeam names the team whose process(es) crash-stop mid-game;
	// negative disables the crash.
	CrashTeam int
	// CrashTick is the logical tick at which CrashTeam goes silent (the
	// lookahead protocols stamp their exchange traffic with ticks). Zero
	// with a crash configured defaults to mid-game.
	CrashTick int64
	// CrashAfter is the virtual-time crash instant, used for EC whose
	// messages carry no tick stamps. Zero with a crash configured on EC
	// defaults to 10ms. On EC both of the node's processes (application
	// and service) crash together — the node fail-stops as a unit.
	CrashAfter time.Duration
	// RestartAfter, when positive, revives the crashed team this long (in
	// virtual time) after its crash fires: its process(es) await the
	// restart and then rejoin the running game through the protocol's
	// join machinery (core.Join for the lookahead protocols, the EC join
	// handshake). Relative to the crash, so it need outlast only the
	// survivors' eviction of the victim (75 ms of suspicion timeouts at
	// the defaults), not a protocol's speed. Zero keeps the crash permanent.
	RestartAfter time.Duration
	// LateJoinTeam names a team that skips the initial rendezvous: the
	// other players start the game without it and it joins in progress at
	// LateJoinAt. Enabled iff LateJoinAt > 0; lookahead protocols only.
	LateJoinTeam int
	// LateJoinAt is the virtual-time instant at which LateJoinTeam joins.
	LateJoinAt time.Duration
	// SuspectTimeout is the failure-detection timeout handed to the
	// protocols; zero means 5ms (virtual time).
	SuspectTimeout time.Duration
	// MaxRetransmits bounds retransmissions before eviction; zero means
	// the protocol default.
	MaxRetransmits int
	// QuorumF turns each EC lock-manager shard into a quorum group of
	// 2f+1 teams: dirty releases commit the ownership record to a
	// majority before grants escape, and failover reconstructs the
	// records with a quorum read (see ec.NodeConfig.QuorumF). Zero (the
	// default) keeps the unreplicated EC behavior. EC only.
	QuorumF int
	// CheckpointEvery enables the lookahead runtime's replicated
	// checkpoint stream: every CheckpointEvery ticks each player sends
	// its store snapshot to CheckpointF+1 peers, so a restarted crash
	// victim recovers its committed writes even when every process that
	// held them crashed too (see core.Config.CheckpointEvery). Zero
	// disables it. Lookahead protocols only.
	CheckpointEvery int64
	// CheckpointF is the checkpoint stream's crash budget; zero means
	// core.DefaultCheckpointF when CheckpointEvery is set.
	CheckpointF int
	// ExtraCrashes adds permanent crash-stops for additional processes,
	// merged into the fault plan by process index (team number for the
	// lookahead protocols; app i / service n+i for EC, and a node's two
	// processes should crash together). Unlike CrashTeam there is no
	// rejoin machinery for extras — they stay dead — and a CrashTeam
	// entry overrides an extra for the same process. Use them to kill a
	// crashed team's entire original holder set and exercise quorum
	// recovery.
	ExtraCrashes map[int]faultnet.Crash
	// Traces, when non-nil, must hold one recorder per team; recorder i
	// receives team i's observation history. A crashed-then-restarted
	// team keeps appending to its recorder across both lives (post-rejoin
	// events carry the resumed ticks). Lookahead protocols only.
	Traces []*trace.Recorder
	// Snapshot, when set, receives each team's final store after its
	// process finishes successfully (a permanently crashed team never
	// reports one). Lookahead protocols only.
	Snapshot func(team int, st *store.Store)
}

func (c ChaosConfig) withChaosDefaults() ChaosConfig {
	c.Config = c.Config.withDefaults()
	if c.SuspectTimeout == 0 {
		c.SuspectTimeout = 5 * time.Millisecond
	}
	if c.CrashTeam >= c.Game.Teams {
		c.CrashTeam = -1
	}
	if c.CrashTeam >= 0 && c.CrashTick == 0 && c.CrashAfter == 0 {
		if c.Protocol == EC {
			c.CrashAfter = 10 * time.Millisecond
		} else {
			half := int64(c.Game.MaxTicks / 2)
			if half < 2 {
				half = 2
			}
			c.CrashTick = half
		}
	}
	if c.LateJoinTeam < 0 || c.LateJoinTeam >= c.Game.Teams {
		c.LateJoinAt = 0
	}
	if c.LateJoinAt > 0 && c.LateJoinTeam == c.CrashTeam {
		c.CrashTeam = -1 // a team cannot both late-join and crash
	}
	return c
}

// ChaosResult extends Result with the fault-injection outcome.
type ChaosResult struct {
	*Result
	// Crashed reports whether the configured crash actually fired (the
	// victim died with faultnet.ErrCrashed).
	Crashed bool
	// Rejoined reports whether every configured re-entry completed: the
	// crashed team restarted and rejoined (RestartAfter > 0) and/or the late
	// joiner was admitted (LateJoinAt > 0). False when neither is
	// configured.
	Rejoined bool
	// DecisionLogs holds each endpoint's fault-decision log, in endpoint
	// order; byte-identical logs across runs mean identical fault
	// injection (the determinism witness).
	DecisionLogs []string
}

// RunChaos executes one fault-injected experiment. The game must complete
// among the surviving teams: any error from a non-crashed process fails the
// run.
func RunChaos(cfg ChaosConfig) (*ChaosResult, error) {
	// Validate before normalization: withChaosDefaults zeroes LateJoinAt
	// when LateJoinTeam is out of range, which used to silently run an
	// EC config that asked for an unsupported late join instead of
	// reporting the combination — and a supported-protocol error should
	// never wait until after endpoints spin up.
	if cfg.Protocol == EC && cfg.LateJoinAt > 0 {
		return nil, errors.New("harness: late join is a lookahead scenario; EC supports crash-then-restart (RestartAfter)")
	}
	cfg = cfg.withChaosDefaults()
	switch cfg.Protocol {
	case BSYNC, MSYNC, MSYNC2:
		return runChaosLookahead(cfg)
	case EC:
		return runChaosEC(cfg)
	default:
		return nil, fmt.Errorf("harness: chaos runs support the paper's four protocols, not %q", cfg.Protocol)
	}
}

// RunChaosGrid executes a batch of chaos experiments concurrently on a
// worker pool (workers <= 0 means GOMAXPROCS) and returns the results in
// input order. Every experiment is a self-contained simulation whose fault
// decisions derive only from its own ChaosConfig.Seed, so concurrent
// execution reproduces the exact sequential results — decision logs
// included; TestChaosGridParallelDeterminism asserts it under -race. On
// error the first failing experiment in input order is reported.
func RunChaosGrid(cfgs []ChaosConfig, workers int) ([]*ChaosResult, error) {
	results := make([]*ChaosResult, len(cfgs))
	errs := make([]error, len(cfgs))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i], errs[i] = RunChaos(cfgs[i])
			}
		}()
	}
	for i := range cfgs {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

func runChaosLookahead(cfg ChaosConfig) (*ChaosResult, error) {
	n := cfg.Game.Teams
	lateJoin := cfg.LateJoinAt > 0
	restart := cfg.CrashTeam >= 0 && cfg.RestartAfter > 0
	sim := vtime.NewSim(vtime.Config{
		Links:   netmodel.NewCluster(cfg.Net),
		Horizon: cfg.Horizon,
	})
	if cfg.Traces != nil && len(cfg.Traces) != n {
		return nil, fmt.Errorf("harness: %d trace recorders for %d teams", len(cfg.Traces), n)
	}
	crashes := make(map[int]faultnet.Crash)
	for p, c := range cfg.ExtraCrashes {
		if p < 0 || p >= n {
			return nil, fmt.Errorf("harness: extra crash for process %d outside the %d teams", p, n)
		}
		crashes[p] = c
	}
	if cfg.CrashTeam >= 0 {
		crashes[cfg.CrashTeam] = faultnet.Crash{AtTick: cfg.CrashTick, RestartAfter: cfg.RestartAfter}
	}
	plan := &faultnet.Plan{Seed: cfg.Seed, Default: cfg.Faults, Crashes: crashes}

	collectors := make([]*metrics.Collector, n)
	stats := make([]game.TeamStats, n)
	errs := make([]error, n)
	eps := make([]*faultnet.Endpoint, n)
	crashFired := make([]bool, n)

	for i := 0; i < n; i++ {
		i := i
		collectors[i] = metrics.NewCollector()
		sim.Spawn(func(p *vtime.Proc) {
			pcfg := lookahead.PlayerConfig{
				Game:              cfg.Game,
				Protocol:          lookaheadVariant(cfg.Protocol),
				Endpoint:          eps[i],
				Metrics:           collectors[i],
				ComputePerTick:    cfg.ComputePerTick,
				RendezvousTimeout: cfg.SuspectTimeout,
				MaxRetransmits:    cfg.MaxRetransmits,
				CheckpointEvery:   cfg.CheckpointEvery,
				CheckpointF:       cfg.CheckpointF,
			}
			if cfg.Traces != nil {
				pcfg.Trace = cfg.Traces[i]
			}
			if cfg.Snapshot != nil {
				pcfg.Snapshot = func(st *store.Store) { cfg.Snapshot(i, st) }
			}
			if lateJoin {
				if i == cfg.LateJoinTeam {
					// Sit out until the join instant, then enter the
					// running game through the rejoin machinery.
					if wait := cfg.LateJoinAt - eps[i].Now(); wait > 0 {
						eps[i].Compute(wait)
					}
					pcfg.Join = true
					pcfg.Incarnation = 1
				} else {
					pcfg.AbsentPeers = []int{cfg.LateJoinTeam}
				}
			}
			stats[i], errs[i] = lookahead.RunPlayer(pcfg)
			if i != cfg.CrashTeam || !restart || !errors.Is(errs[i], faultnet.ErrCrashed) {
				return
			}
			// Crash-then-restart: wait out the downtime (losing whatever
			// was queued — fail-stop loses volatile state) and re-enter
			// the game as a new incarnation via a peer checkpoint.
			crashFired[i] = true
			if err := eps[i].AwaitRestart(); err != nil {
				errs[i] = err
				return
			}
			pcfg.Join = true
			pcfg.Incarnation = 1
			pcfg.AbsentPeers = nil
			stats[i], errs[i] = lookahead.RunPlayer(pcfg)
		})
	}
	for i := 0; i < n; i++ {
		inner := transport.NewSimEndpoint(sim.Proc(i), n, transport.FixedSize(cfg.MsgSize))
		eps[i] = plan.Wrap(inner, collectors[i])
	}
	if err := sim.Run(); err != nil {
		return nil, fmt.Errorf("%s chaos simulation: %w", cfg.Protocol, err)
	}
	crashed := false
	for i, err := range errs {
		crashed = crashed || crashFired[i]
		if err == nil {
			continue
		}
		if i == cfg.CrashTeam && errors.Is(err, faultnet.ErrCrashed) && !crashFired[i] {
			crashed = true
			continue
		}
		if _, extra := cfg.ExtraCrashes[i]; extra && i != cfg.CrashTeam && errors.Is(err, faultnet.ErrCrashed) {
			crashed = true // an extra crash fired; it stays dead by design
			continue
		}
		role := "survivor"
		switch {
		case crashFired[i]:
			role = "rejoiner"
		case lateJoin && i == cfg.LateJoinTeam:
			role = "late joiner"
		}
		return nil, fmt.Errorf("%s chaos %s %d: %w", cfg.Protocol, role, i, err)
	}
	// Any configured re-entry that failed was fatal above, so reaching
	// here means the late joiner (if any) was admitted and the restarted
	// victim (if its crash fired) rejoined.
	rejoined := (lateJoin || restart) && (!restart || crashFired[cfg.CrashTeam])
	res := collect(cfg.Config, stats, collectors)
	logs := make([]string, n)
	for i, ep := range eps {
		logs[i] = string(ep.DecisionLog())
	}
	return &ChaosResult{Result: res, Crashed: crashed, Rejoined: rejoined, DecisionLogs: logs}, nil
}

func runChaosEC(cfg ChaosConfig) (*ChaosResult, error) {
	n := cfg.Game.Teams
	if cfg.LateJoinAt > 0 {
		return nil, errors.New("harness: late join is a lookahead scenario; EC supports crash-then-restart (RestartAfter)")
	}
	restart := cfg.CrashTeam >= 0 && cfg.RestartAfter > 0
	net := cfg.Net
	net.HostOf = func(proc int) int { return proc % n }
	sim := vtime.NewSim(vtime.Config{
		Links:   netmodel.NewCluster(net),
		Horizon: cfg.Horizon,
	})
	crashes := make(map[int]faultnet.Crash)
	for p, c := range cfg.ExtraCrashes {
		if p < 0 || p >= 2*n {
			return nil, fmt.Errorf("harness: extra crash for process %d outside the %d EC processes", p, 2*n)
		}
		crashes[p] = c
	}
	if cfg.CrashTeam >= 0 {
		// The node fail-stops as a unit: application and service die at
		// the same virtual instant (and revive together on restart).
		crashes[cfg.CrashTeam] = faultnet.Crash{At: cfg.CrashAfter, RestartAfter: cfg.RestartAfter}
		crashes[n+cfg.CrashTeam] = faultnet.Crash{At: cfg.CrashAfter, RestartAfter: cfg.RestartAfter}
	}
	plan := &faultnet.Plan{Seed: cfg.Seed, Default: cfg.Faults, Crashes: crashes}

	collectors := make([]*metrics.Collector, n)
	nodes := make([]*ec.Node, n)
	stats := make([]game.TeamStats, n)
	appErrs := make([]error, n)
	svcErrs := make([]error, n)
	eps := make([]*faultnet.Endpoint, 2*n)
	crashFired := make([]bool, 2*n)
	// The rejoin node is built up front (node construction is pure, so
	// this keeps the run deterministic) and shared by both revived procs.
	var rejoinNode *ec.Node

	for i := 0; i < n; i++ {
		i := i
		collectors[i] = metrics.NewCollector()
		sim.Spawn(func(p *vtime.Proc) { // app proc i
			stats[i], appErrs[i] = nodes[i].RunApp()
			if i != cfg.CrashTeam || rejoinNode == nil || !errors.Is(appErrs[i], faultnet.ErrCrashed) {
				return
			}
			crashFired[i] = true
			if err := eps[i].AwaitRestart(); err != nil {
				appErrs[i] = err
				return
			}
			stats[i], appErrs[i] = rejoinNode.RunApp()
		})
	}
	for i := 0; i < n; i++ {
		i := i
		sim.Spawn(func(p *vtime.Proc) { // svc proc n+i
			svcErrs[i] = nodes[i].RunService()
			if i != cfg.CrashTeam || rejoinNode == nil || !errors.Is(svcErrs[i], faultnet.ErrCrashed) {
				return
			}
			crashFired[n+i] = true
			if err := eps[n+i].AwaitRestart(); err != nil {
				svcErrs[i] = err
				return
			}
			svcErrs[i] = rejoinNode.RunService()
		})
	}
	for i := 0; i < n; i++ {
		eps[i] = plan.Wrap(transport.NewSimEndpoint(sim.Proc(i), 2*n, transport.FixedSize(cfg.MsgSize)), collectors[i])
		eps[n+i] = plan.Wrap(transport.NewSimEndpoint(sim.Proc(n+i), 2*n, transport.FixedSize(cfg.MsgSize)), collectors[i])
		node, err := ec.New(ec.NodeConfig{
			Game:           cfg.Game,
			App:            eps[i],
			Svc:            eps[n+i],
			Metrics:        collectors[i],
			ComputePerTick: cfg.ComputePerTick,
			SuspectTimeout: cfg.SuspectTimeout,
			MaxRetransmits: cfg.MaxRetransmits,
			QuorumF:        cfg.QuorumF,
		})
		if err != nil {
			return nil, err
		}
		nodes[i] = node
	}
	if restart {
		node, err := ec.New(ec.NodeConfig{
			Game:           cfg.Game,
			App:            eps[cfg.CrashTeam],
			Svc:            eps[n+cfg.CrashTeam],
			Metrics:        collectors[cfg.CrashTeam],
			ComputePerTick: cfg.ComputePerTick,
			SuspectTimeout: cfg.SuspectTimeout,
			MaxRetransmits: cfg.MaxRetransmits,
			QuorumF:        cfg.QuorumF,
			Rejoin:         true,
			Incarnation:    1,
		})
		if err != nil {
			return nil, err
		}
		rejoinNode = node
	}
	if err := sim.Run(); err != nil {
		return nil, fmt.Errorf("EC chaos simulation: %w", err)
	}
	crashed := false
	for i := 0; i < n; i++ {
		rejoiner := crashFired[i] || crashFired[n+i]
		crashed = crashed || rejoiner
		for j, err := range []error{appErrs[i], svcErrs[i]} {
			if err == nil {
				continue
			}
			if i == cfg.CrashTeam && errors.Is(err, faultnet.ErrCrashed) && !rejoiner {
				crashed = true
				continue
			}
			proc := i + j*n // app proc is i, service proc is n+i
			if _, extra := cfg.ExtraCrashes[proc]; extra && i != cfg.CrashTeam && errors.Is(err, faultnet.ErrCrashed) {
				crashed = true // an extra crash fired; it stays dead by design
				continue
			}
			role := "survivor"
			if rejoiner {
				role = "rejoiner"
			}
			return nil, fmt.Errorf("EC chaos %s %d: %w", role, i, err)
		}
	}
	rejoined := restart && crashFired[cfg.CrashTeam] && crashFired[n+cfg.CrashTeam]
	res := collect(cfg.Config, stats, collectors)
	logs := make([]string, 2*n)
	for i, ep := range eps {
		logs[i] = string(ep.DecisionLog())
	}
	return &ChaosResult{Result: res, Crashed: crashed, Rejoined: rejoined, DecisionLogs: logs}, nil
}
