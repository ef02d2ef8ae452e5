// Chaos experiments: complete games run under injected faults — lossy,
// duplicating, delaying links and mid-game crash-stops — with the runtime's
// failure detection enabled. Everything (fault decisions included) is
// deterministic per seed on the simulated cluster, so a failing chaos run
// reproduces exactly from its ChaosConfig.
package harness

import (
	"errors"
	"fmt"
	"time"

	"sdso/internal/faultnet"
	"sdso/internal/game"
	"sdso/internal/protocol/ec"
	"sdso/internal/protocol/lookahead"
	"sdso/internal/store"
	"sdso/internal/trace"
	"sdso/internal/transport"
)

// ChaosConfig describes one fault-injected experiment run.
type ChaosConfig struct {
	// Config is the run; its SuspectTimeout (the failure-detection timeout
	// handed to the protocols) defaults to 5ms of virtual time here. Chaos
	// runs play the plain exchange: DeltaEncode, MaxBatchTicks, Interest
	// and Shards are not applied.
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
	case BSYNC, MSYNC, MSYNC2, EC:
	default:
		return nil, fmt.Errorf("harness: chaos runs support the paper's four protocols, not %q", cfg.Protocol)
	}
	n := cfg.Game.Teams
	if cfg.Traces != nil && len(cfg.Traces) != n {
		return nil, fmt.Errorf("harness: %d trace recorders for %d teams", len(cfg.Traces), n)
	}
	lateJoin := cfg.LateJoinAt > 0
	restart := cfg.CrashTeam >= 0 && cfg.RestartAfter > 0
	c := simCluster{name: string(cfg.Protocol) + " chaos", procs: n}
	crash := faultnet.Crash{AtTick: cfg.CrashTick, RestartAfter: cfg.RestartAfter}
	if cfg.Protocol == EC {
		// The node fail-stops as a unit: application and service die at
		// the same virtual instant (and revive together on restart).
		c.procs, c.nodes = 2*n, n
		crash = faultnet.Crash{At: cfg.CrashAfter, RestartAfter: cfg.RestartAfter}
	}
	crashes := make(map[int]faultnet.Crash)
	for p, x := range cfg.ExtraCrashes {
		if p < 0 || p >= c.procs {
			return nil, fmt.Errorf("harness: extra crash for process %d outside the %d processes", p, c.procs)
		}
		crashes[p] = x
	}
	for p := cfg.CrashTeam; p >= 0 && p < c.procs; p += n {
		crashes[p] = crash
	}
	plan := &faultnet.Plan{Seed: cfg.Seed, Default: cfg.Faults, Crashes: crashes}

	collectors := newCollectors(n)
	stats := make([]game.TeamStats, n)
	feps := make([]*faultnet.Endpoint, c.procs)
	c.wrap = func(i int, ep transport.Endpoint) transport.Endpoint {
		feps[i] = plan.Wrap(ep, collectors[i%n])
		return feps[i]
	}
	// life plays process i on ep: its first life or, again, its life after
	// a restart.
	var life func(i int, ep transport.Endpoint, again bool) error
	if cfg.Protocol == EC {
		// The rejoin node is built up front (node construction is pure, so
		// this keeps the run deterministic) and shared by both revived procs.
		nodes := make([]*ec.Node, n)
		var reborn *ec.Node
		node := func(eps []transport.Endpoint, team int, rejoin bool) (*ec.Node, error) {
			nc := cfg.ecNode(eps[team], eps[n+team], collectors[team])
			nc.MaxRetransmits, nc.QuorumF = cfg.MaxRetransmits, cfg.QuorumF
			nc.Rejoin = rejoin
			if rejoin {
				nc.Incarnation = 1
			}
			return ec.New(nc)
		}
		c.setup = func(eps []transport.Endpoint) (err error) {
			for i := range nodes {
				if nodes[i], err = node(eps, i, false); err != nil {
					return err
				}
			}
			if restart {
				reborn, err = node(eps, cfg.CrashTeam, true)
			}
			return err
		}
		life = func(i int, _ transport.Endpoint, again bool) error {
			if again {
				return nodeBody(reborn, i, n, stats)
			}
			return nodeBody(nodes[i%n], i, n, stats)
		}
	} else {
		plain := cfg.Config // chaos plays the plain exchange (see ChaosConfig)
		plain.DeltaEncode, plain.MaxBatchTicks, plain.Interest, plain.Shards = false, 0, false, 0
		life = func(i int, ep transport.Endpoint, again bool) (err error) {
			pc := plain.player(ep, collectors[i])
			pc.MaxRetransmits, pc.CheckpointEvery, pc.CheckpointF = cfg.MaxRetransmits, cfg.CheckpointEvery, cfg.CheckpointF
			if cfg.Traces != nil {
				pc.Trace = cfg.Traces[i]
			}
			if cfg.Snapshot != nil {
				pc.Snapshot = func(st *store.Store) { cfg.Snapshot(i, st) }
			}
			switch {
			case again:
				// Re-enter the game as a new incarnation via a peer checkpoint.
				pc.Join, pc.Incarnation = true, 1
			case lateJoin && i == cfg.LateJoinTeam:
				// Sit out until the join instant, then enter the running
				// game through the rejoin machinery.
				if wait := cfg.LateJoinAt - feps[i].Now(); wait > 0 {
					feps[i].Compute(wait)
				}
				pc.Join, pc.Incarnation = true, 1
			case lateJoin:
				pc.AbsentPeers = []int{cfg.LateJoinTeam}
			}
			stats[i], err = lookahead.RunPlayer(pc)
			return err
		}
	}

	fired := make([]bool, c.procs) // crashed, then revived by the restart
	down := make([]bool, c.procs)  // crashed and stayed down by design
	c.role = func(i int) string {
		role := "survivor"
		switch {
		case fired[i]:
			role = "rejoiner"
		case lateJoin && i == cfg.LateJoinTeam:
			role = "late joiner"
		}
		return fmt.Sprintf("%s %d", role, i%n)
	}
	err := c.play(cfg.Config, func(i int, ep transport.Endpoint) error {
		err := life(i, ep, false)
		if restart && i%n == cfg.CrashTeam && errors.Is(err, faultnet.ErrCrashed) {
			// Crash-then-restart: wait out the downtime (losing whatever
			// was queued — fail-stop loses volatile state), then live again.
			fired[i] = true
			if err = feps[i].AwaitRestart(); err == nil {
				err = life(i, ep, true)
			}
		}
		_, extra := cfg.ExtraCrashes[i]
		if errors.Is(err, faultnet.ErrCrashed) && !fired[i] && (i%n == cfg.CrashTeam || extra) {
			down[i] = true // a permanent crash fired, as configured
			return nil
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	// Any configured re-entry that failed was fatal above, so reaching
	// here means the late joiner (if any) was admitted; the restarted
	// victim rejoined if every one of its processes revived.
	crashed, rejoined := false, lateJoin || restart
	logs := make([]string, c.procs)
	for i, ep := range feps {
		crashed = crashed || fired[i] || down[i]
		if restart && i%n == cfg.CrashTeam && !fired[i] {
			rejoined = false
		}
		logs[i] = string(ep.DecisionLog())
	}
	return &ChaosResult{Result: collect(cfg.Config, stats, collectors), Crashed: crashed, Rejoined: rejoined, DecisionLogs: logs}, nil
}
