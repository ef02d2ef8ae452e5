// Package lookahead implements the paper's three lookahead consistency
// protocols — BSYNC, MSYNC, and MSYNC2 (§3.2) — as configurations of the
// S-DSO runtime, and the game player loop that drives them.
//
// All three share the same structure: every logical tick a process applies
// due updates, performs at most one object modification, and exchanges
// (data, SYNC) pairs with the processes due in its exchange-list, blocking
// until they exchange back. They differ only in their s-functions and
// spatial data filters:
//
//   - BSYNC schedules every peer at every tick and always sends data: pure
//     temporal consistency via broadcast, with logical timestamps bounding
//     clock skew to one tick.
//   - MSYNC schedules rendezvous by halving the distance between the
//     nearest tanks of the two teams and sends data only to peers whose
//     tanks could, in the worst case, share a row or column with a local
//     tank.
//   - MSYNC2 refines MSYNC's filter: data flows only if the peers could
//     also come within the interaction radius.
//
// Every withhold additionally yields to two flush backstops — a peer's
// tanks approaching the region of buffered (withheld) modifications, or
// coming within reach of the local tanks while anything is buffered; this
// is the invariant that keeps every block a tank looks at consistent
// (paper §4: "the consistency protocol ensures that the necessary blocks,
// in the range of a tank, are all always consistent").
//
// The spatial filter is one function, gate (gate.go), handed to the
// runtime as the paper's SendData argument: the backstops, the protocol's
// own term above, and the two optional fanout bounds (PlayerConfig.Interest,
// PlayerConfig.Shards) are its ordered terms, so the backstops exist once
// and cover every reason to withhold.
package lookahead

import (
	"errors"
	"fmt"
	"time"

	"sdso/internal/core"
	"sdso/internal/game"
	"sdso/internal/interest"
	"sdso/internal/metrics"
	"sdso/internal/shard"
	"sdso/internal/store"
	"sdso/internal/trace"
	"sdso/internal/transport"
	"sdso/internal/wire"
)

// Protocol selects a lookahead variant.
type Protocol int

// Protocols.
const (
	// BSYNC broadcasts synchronous exchanges to all processes each tick.
	BSYNC Protocol = iota + 1
	// MSYNC multicasts per the distance-halving s-function with the
	// row/column worst-case data filter.
	MSYNC
	// MSYNC2 is MSYNC with the additional within-range data filter.
	MSYNC2
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case BSYNC:
		return "BSYNC"
	case MSYNC:
		return "MSYNC"
	case MSYNC2:
		return "MSYNC2"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// PlayerConfig configures one game process.
type PlayerConfig struct {
	// Game is the shared game configuration (identical on every process).
	Game game.Config
	// Protocol selects the lookahead variant.
	Protocol Protocol
	// Endpoint connects this player to the group; the endpoint ID is the
	// team number.
	Endpoint transport.Endpoint
	// Metrics receives this process's counters (nil allocates one).
	Metrics *metrics.Collector
	// MergeDiffs toggles slotted-buffer diff merging (default on; the
	// ablation bench turns it off).
	MergeDiffs *bool
	// DeltaEncode switches DATA payloads to the delta-capable record
	// encoding (see core.Config.DeltaEncode). Off by default so the wire
	// stays byte-identical to the plain encoding.
	DeltaEncode bool
	// MaxBatchTicks folds up to this many logical ticks' modifications
	// into one exchange frame by stretching BSYNC's s-function to
	// core.EveryKTicks(MaxBatchTicks): between rendezvous, writes buffer
	// and merge, so the per-tick wire cost divides by the batch factor at
	// the price of replicas trailing up to MaxBatchTicks-1 ticks. Only
	// BSYNC batches — the MSYNC variants' s-functions already skip quiet
	// ticks, and stretching them would break the spatial flush
	// invariants. Values below 2 mean no batching.
	MaxBatchTicks int64
	// Interest turns on spatial interest management: an index
	// (internal/interest) tracks which peers' tanks are within the
	// interaction radius (with hysteresis slack), and the gate's interest
	// term withholds DATA from peers outside the set — their writes keep
	// buffering and merging until they come near (the gate's flush
	// backstops deliver them; an enter-radius event sends nothing), and
	// under BSYNC the s-function additionally stretches rendezvous with far
	// peers (bounded by the symmetric NextDelta guarantee) so SYNC traffic
	// scales with neighborhood density too. The gate evaluates its flush
	// backstops (box approach, within range) before this term, so they
	// always override it, and Broadcast flushes bypass the gate entirely.
	// Off by default: the exchange path stays byte-identical.
	Interest bool
	// Shards partitions the world grid into this many numbered regions
	// (internal/shard: recursive longest-axis halving, so the count must
	// be a power of two up to 256) and adds a residency term to the gate:
	// a peer receives a flush only when some region is within interaction
	// reach of both neighborhoods. It is the gate's last term, behind the
	// unknown-peer pass, the flush backstops and the interest term, so it
	// inherits their safety rules and shard_vetoes counts only withholds
	// nothing earlier decided. Zero or one leaves the exchange path
	// byte-identical to the unsharded runtime.
	Shards int
	// ComputePerTick models the application's per-tick local processing
	// ("the application processes have only a minimal amount of local
	// processor processing to perform", §4).
	ComputePerTick time.Duration
	// RendezvousTimeout enables crash detection in the runtime: silent
	// rendezvous partners are suspected after this long, retransmitted to
	// under backoff, and evicted after MaxRetransmits strikes (see
	// core.Config). Zero keeps the fail-free blocking behavior.
	RendezvousTimeout time.Duration
	// MaxRetransmits bounds retransmissions per suspicion episode; zero
	// means transport.DefaultMaxRetransmits.
	MaxRetransmits int
	// Join makes this process enter a game already in progress instead of
	// assuming the initial rendezvous: it restores the world from peer
	// checkpoints via core.Join and plays only the remaining ticks. Both a
	// restarted crash victim and a brand-new late joiner use this path.
	// Requires RendezvousTimeout > 0.
	Join bool
	// Incarnation distinguishes successive lives of this team's process
	// ID (used with Join; 1 for a first restart or a late joiner).
	Incarnation int64
	// AbsentPeers lists teams not present at the initial rendezvous (late
	// joiners); they enter the membership only when their join request
	// arrives. Their tanks sit idle on the board until then.
	AbsentPeers []int

	// CheckpointEvery enables the runtime's replicated checkpoint stream:
	// every CheckpointEvery ticks the store snapshot goes to CheckpointF+1
	// peers, so a rejoining crash victim recovers its committed writes
	// even when every process it exchanged with is gone too (see
	// core.Config.CheckpointEvery). Zero (the default) disables it.
	CheckpointEvery int64
	// CheckpointF is the checkpoint stream's crash budget; zero means
	// core.DefaultCheckpointF when CheckpointEvery is set.
	CheckpointF int

	// Trace, when set, records this process's observation history (runtime
	// events plus per-tick tank positions) for the consistency oracle in
	// internal/check. Nil disables tracing.
	Trace *trace.Recorder
	// Snapshot, when set, receives the final store after a successful run
	// (the oracle's convergence checks compare these across processes).
	Snapshot func(*store.Store)

	// afterExchange, when set, runs after each completed exchange;
	// onActions, when set, observes each tick's decisions (test-only
	// instrumentation).
	afterExchange func(p *player)
	onActions     func(tick int64, act game.Action)
}

// knownPeer is the freshest rendezvous information about one peer. Each
// rendezvous decodes into the same entry (beacon.Tanks' backing and box are
// its storage), so nothing may keep beacon.Tanks or beacon.Box across ticks.
type knownPeer struct {
	present bool // something is known; the rest is meaningless otherwise
	beacon  game.Beacon
	box     game.Box // what beacon.Box points to when the peer advertised one
	tick    int64
}

// player is one running game process.
type player struct {
	cfg    PlayerConfig
	rt     *core.Runtime
	team   int
	turn   game.Team
	known  []knownPeer // indexed by team; see knownPeer.present
	mc     *metrics.Collector
	ix     *interest.Index   // nil unless cfg.Interest
	shards *shard.Partition  // nil unless cfg.Shards > 1
	opts   core.ExchangeOpts // every tick's exchange() arguments, built once
	// marks says no rendezvous is batched, so the player tells the runtime
	// which peers its replica shows ended (see markDeparted).
	marks bool

	// Per-tick scratch: the own tanks' positions (see positions), the box
	// of writes buffered for a peer (see pendingBox), the enemy picture
	// handed to the turn, and the tick's box-less beacon.
	pos     []game.Pos
	ids     []store.ID
	box     game.Box
	enemies map[int][]game.Pos
	// bare is the beacon for a peer with nothing buffered — every BSYNC
	// peer, every tick — encoded once per tick (a fresh slice each tick:
	// receivers and the retransmission state keep it) and shared read-only
	// by that tick's SYNCs.
	bare     []int64
	bareTick int64
	// Every beacon sent is carved from ints (see beacon), encoded first in
	// the scratch enc.
	ints wire.IntsChunk
	enc  []int64
}

// RunPlayer executes one team's process to completion and returns its
// stats. Every process in the group must run RunPlayer with the same
// game.Config (and its own endpoint); a finished player departs it.
func RunPlayer(cfg PlayerConfig) (game.TeamStats, error) {
	p, err := newPlayer(cfg)
	if err != nil {
		return game.TeamStats{}, err
	}
	stats, err := p.run()
	if err == nil {
		transport.Depart(cfg.Endpoint)
	}
	return stats, err
}

// newPlayer validates the configuration and assembles a player.
func newPlayer(cfg PlayerConfig) (*player, error) {
	if cfg.Endpoint == nil {
		return nil, errors.New("lookahead: config requires an endpoint")
	}
	if cfg.Protocol < BSYNC || cfg.Protocol > MSYNC2 {
		return nil, fmt.Errorf("lookahead: unknown protocol %d", cfg.Protocol)
	}
	if cfg.Game.Teams != cfg.Endpoint.N() {
		return nil, fmt.Errorf("lookahead: %d teams but %d endpoints", cfg.Game.Teams, cfg.Endpoint.N())
	}
	mc := cfg.Metrics
	if mc == nil {
		mc = metrics.NewCollector()
	}
	merge := true
	if cfg.MergeDiffs != nil {
		merge = *cfg.MergeDiffs
	}

	p := &player{
		cfg:     cfg,
		team:    cfg.Endpoint.ID(),
		known:   make([]knownPeer, cfg.Endpoint.N()),
		enemies: make(map[int][]game.Pos, cfg.Endpoint.N()),
		mc:      mc,
	}
	if cfg.Interest {
		p.ix = interest.New(interest.Config{Radius: cfg.Game.InteractionRadius()})
	}
	if cfg.Shards > 1 {
		part, err := shard.New(cfg.Game.Width, cfg.Game.Height, cfg.Shards)
		if err != nil {
			return nil, fmt.Errorf("lookahead: %w", err)
		}
		p.shards = part
	}

	// A joiner starts knowing only itself and readmits peers as their join
	// acks arrive; a survivor expecting late joiners starts without them.
	var members []int
	switch {
	case cfg.Join:
		members = []int{cfg.Endpoint.ID()}
	case len(cfg.AbsentPeers) > 0:
		absent := make(map[int]bool, len(cfg.AbsentPeers))
		for _, t := range cfg.AbsentPeers {
			absent[t] = true
		}
		for t := 0; t < cfg.Endpoint.N(); t++ {
			if !absent[t] {
				members = append(members, t)
			}
		}
	}

	batch := int64(0)
	if cfg.Protocol == BSYNC && cfg.MaxBatchTicks > 1 {
		batch = cfg.MaxBatchTicks
	}
	rt, err := core.New(core.Config{
		Endpoint:          cfg.Endpoint,
		Metrics:           mc,
		MergeDiffs:        merge,
		DeltaEncode:       cfg.DeltaEncode,
		MaxBatchTicks:     batch,
		Trace:             cfg.Trace,
		RendezvousTimeout: cfg.RendezvousTimeout,
		MaxRetransmits:    cfg.MaxRetransmits,
		CheckpointEvery:   cfg.CheckpointEvery,
		CheckpointF:       cfg.CheckpointF,
		InitialMembers:    members,
		OnJoin: func(peer int) {
			// Forget the joiner's pre-crash beacon: with no knowledge the
			// MSYNC filters flush everything at the first rendezvous, so
			// the rejoined peer cannot walk into withheld writes. The
			// interest index likewise marks it blind — unconditionally
			// interesting — until its first beacon lands.
			p.known[peer].present = false
			if p.ix != nil {
				p.ix.Forget(peer)
			}
		},
		OnBeacon: func(peer int, ints []int64) {
			kp := &p.known[peer]
			if err := game.DecodeBeaconInto(&kp.beacon, &kp.box, ints); err != nil {
				return // malformed beacons are ignored; stale info remains
			}
			kp.present, kp.tick = true, p.rt.Now()
			if p.ix != nil {
				p.ix.Observe(peer, kp.beacon.Tanks, kp.tick)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	p.rt = rt
	p.opts = p.exchangeOpts()
	p.marks = batch == 0
	return p, nil
}

// run plays the game to completion.
func (p *player) run() (game.TeamStats, error) {
	if err := p.setup(); err != nil {
		return game.TeamStats{}, err
	}
	if err := p.play(); err != nil {
		return game.TeamStats{}, err
	}
	p.mc.SetExecTime(p.cfg.Endpoint.Now())
	if p.cfg.Snapshot != nil {
		p.cfg.Snapshot(p.rt.Store())
	}
	return p.turn.Stats, nil
}

// setup stands the player on the game's start — identical on every process,
// and within one process the same value under every player, so set-up costs
// nothing per block. A joiner instead restores the current world from its
// peers' checkpoints.
func (p *player) setup() error {
	turn, start, err := game.NewTeam(&p.cfg.Game, p.team)
	if err != nil {
		return err
	}
	p.turn = turn
	p.turn.Replica = p.rt.Store()
	if p.cfg.onActions != nil {
		p.turn.Decided = func(act game.Action) { p.cfg.onActions(p.rt.Now()+1, act) }
	}
	if p.cfg.Join {
		// Not over the baseline, cheap as that would be. A joiner has no
		// registered initial states, so a record a peer delta-encodes
		// against one is refused and refetched in full; over the baseline
		// it would apply, and the rejoin frames, recovery fetches and
		// delta_mismatch counts the chaos goldens pin would all move — a
		// protocol change, to be claimed on its own if ever wanted.
		return p.joinSetup()
	}
	if err := p.rt.ShareAll(start.Baseline); err != nil {
		return err
	}
	// Every process knows the initial placement, so peers start "known" as
	// of tick 0, and the start is rendezvous 0: each peer's first
	// rendezvous is the s-function's, over the start with no boxes, and
	// both sides of a pair compute the same one.
	p.learnPeers(start.Tanks, 0)
	p.rt.Start(p.opts.SFunc)
	return nil
}

// joinSetup enters a game already in progress: core.Join restores the
// world checkpoint and the rendezvous schedule, and the current board
// tells us which of our tanks (placed at world creation, possibly
// destroyed while we were away) are still alive.
func (p *player) joinSetup() error {
	p.turn.Place(nil) // until the board it joins says which are alive
	if err := p.rt.Join(p.cfg.Incarnation); err != nil {
		if errors.Is(err, core.ErrJoinFailed) && p.rt.GameOver() {
			// The game ended while this process was away: nobody admits
			// new rendezvous anymore. play() notices and finishes.
			return nil
		}
		return err
	}
	w, err := game.DecodeWorld(p.cfg.Game, p.rt.Store())
	if err != nil {
		return fmt.Errorf("lookahead: decode joined world: %w", err)
	}
	byTeam := w.TanksByTeam()
	p.turn.Place(byTeam[p.team])
	p.learnPeers(byTeam, p.rt.Now())
	return nil
}

// learnPeers takes the board's tanks, by team, as of tick: every other
// team's become the player's knowledge of that peer. The lists are copied —
// a peer's entry is decoded into in place at every rendezvous, and the
// start's table is shared by every player of the process.
func (p *player) learnPeers(byTeam [][]game.Pos, tick int64) {
	total := 0
	for _, positions := range byTeam {
		total += len(positions)
	}
	own := make([]game.Pos, total)
	for team, positions := range byTeam {
		if len(positions) == 0 || team == p.team {
			continue
		}
		n := copy(own, positions)
		p.known[team] = knownPeer{present: true, beacon: game.Beacon{Tanks: own[:n:n]}, tick: tick}
		own = own[n:]
		if p.ix != nil {
			p.ix.Observe(team, positions, tick)
		}
	}
}

// play runs the tick loop: look, decide, modify, exchange. The loop is
// bounded by the logical clock, not an iteration count: a joiner resumes
// with its clock already advanced to the admission tick and plays only
// the remaining ticks.
func (p *player) play() error {
	cfg := p.cfg.Game
	for p.rt.Now() < int64(cfg.MaxTicks) {
		tick := p.rt.Now() + 1
		appStart := p.cfg.Endpoint.Now()
		if cfg.EndOnFirstGoal {
			// Notice a winner's announcement even on rendezvous-free
			// ticks; the game is over for everyone once somebody has
			// captured the goal.
			p.rt.Poll()
			if p.rt.GameOver() {
				p.turn.Stats.DoneTick = p.rt.Now()
				return p.finish(false)
			}
		}
		if p.marks {
			p.markDeparted() // before Begin and Turn: judged on the writes the peers' Begin(tick) reads
		}
		if !p.turn.Begin(tick) {
			return p.finish(p.turn.Stats.ReachedGoal)
		}
		if p.turn.Credit(p.turn.Turn(p.beaconEnemies(), p.write)) {
			p.mc.Add(metrics.Mods, 1)
		}
		p.mc.AddTime(metrics.CatAppCompute, p.cfg.Endpoint.Now()-appStart)
		if p.cfg.ComputePerTick > 0 {
			p.cfg.Endpoint.Compute(p.cfg.ComputePerTick)
			p.mc.AddTime(metrics.CatAppCompute, p.cfg.ComputePerTick)
		}
		if p.turn.Won(tick) {
			return p.finish(true)
		}

		if p.cfg.Trace != nil {
			// The positions the upcoming rendezvous's beacon advertises:
			// this tick's moves have been applied. The oracle pairs these
			// with the peers' same-tick withhold decisions.
			for _, tank := range p.turn.Tanks {
				p.cfg.Trace.Record(trace.OpTankAt, -1, int64(tank.Pos.X), int64(tank.Pos.Y), tick, 0)
			}
		}
		p.refreshInterest(tick)
		if err := p.rt.Exchange(p.opts); err != nil {
			return fmt.Errorf("tick %d: %w", tick, err)
		}
		if p.cfg.afterExchange != nil {
			p.cfg.afterExchange(p)
		}
	}
	p.turn.Horizon(p.rt.Now(), true) // the last exchange landed the last tick's writes
	return p.finish(p.turn.Stats.ReachedGoal)
}

// finish ends the player's game with the runtime's Done, first marking
// departed every live peer whose next rendezvous with it lies past MaxTicks.
// The schedule is pairwise-symmetric (core package doc), so such a peer
// never waits on this process again and Done sends it nothing; at the
// horizon that is every live peer. A race's winning DONE ends every live
// peer's game, so it reaches them all.
func (p *player) finish(won bool) error {
	if !won || !p.cfg.Game.EndOnFirstGoal {
		for peer := range p.known {
			if next, ok := p.rt.NextExchange(peer); ok && next > int64(p.cfg.Game.MaxTicks) {
				p.rt.Departed(peer)
			}
		}
	}
	return p.rt.Done(won)
}

// beaconEnemies returns the turn's enemy picture, in the player's scratch:
// each peer's tanks as its last beacon placed them. A peer that announced
// done or was evicted as crashed no longer moves, so its tanks are left out
// (its final world writes, if any, already landed via DATA).
func (p *player) beaconEnemies() map[int][]game.Pos {
	clear(p.enemies)
	for team := range p.known {
		kp := &p.known[team]
		if kp.present && !p.rt.PeerGone(team) && len(kp.beacon.Tanks) > 0 {
			p.enemies[team] = kp.beacon.Tanks
		}
	}
	return p.enemies
}

// markDeparted marks departed every live peer whose tanks, as its beacon
// of the rendezvous just completed lists them, are all gone from the
// replica: the peer's own Begin reads the same blocks with the same test
// (Team.HoldsTank) and ends its game, so the runtime sends it nothing (see
// core.Runtime.Departed). A beacon with a box says the peer withheld writes
// from this process, whose replica may then lack the ones Begin reads.
func (p *player) markDeparted() {
	for peer := range p.known {
		kp := &p.known[peer]
		if !kp.present || kp.tick != p.rt.Now() || kp.beacon.Box != nil || len(kp.beacon.Tanks) == 0 || p.rt.PeerGone(peer) {
			continue
		}
		alive := false
		for _, pos := range kp.beacon.Tanks {
			alive = alive || p.turn.HoldsTank(pos, peer)
		}
		if !alive {
			p.rt.Departed(peer)
		}
	}
}

// write lands one of the turn's writes in the replica, buffered for the
// peers it is due to.
func (p *player) write(id store.ID, state []byte) bool { return p.rt.Write(id, state) == nil }

// pendingBox returns the bounding box of the modifications still buffered
// for peer, nil when there are none. The box is player scratch: the result
// is valid until the next call.
func (p *player) pendingBox(peer int) *game.Box {
	p.ids = p.rt.AppendPendingObjects(p.ids[:0], peer)
	return game.BoxOfObjectsInto(&p.box, p.cfg.Game, p.ids)
}

// positions returns the own tanks' positions in a buffer reused by every
// call: the result is valid until the next call.
func (p *player) positions() []game.Pos {
	p.pos = game.AppendPositions(p.pos[:0], p.turn.Tanks)
	return p.pos
}

// beacon encodes b into a slice carved from the player's chunk: a sent
// beacon is shared and immutable (DESIGN.md §15), so it needs no heap
// object of its own.
func (p *player) beacon(b game.Beacon) []int64 {
	p.enc = game.AppendBeacon(p.enc[:0], b)
	return p.ints.Carve(p.enc...)
}

// exchangeOpts assembles the per-protocol exchange configuration: the
// s-function (the temporal half) and the gate (the spatial half).
func (p *player) exchangeOpts() core.ExchangeOpts {
	h := p.cfg.Game.InteractionRadius()
	// The interest and shard terms withhold from most peers at scale, so
	// their bare SYNCs fan out grouped; the paper's plain filters withhold
	// from few and keep their SYNCs inline in peer order (grouping there
	// only reorders sends and costs virtual time).
	bounded := p.ix != nil || p.shards != nil
	opts := core.ExchangeOpts{
		Resync:             true,
		How:                core.Multicast,
		GroupWithheldSyncs: bounded,
		Beacon: func(peer int) []int64 {
			if box := p.pendingBox(peer); box != nil {
				return p.beacon(game.Beacon{Tanks: p.positions(), Box: box})
			}
			if now := p.rt.Now(); p.bareTick != now {
				p.bare, p.bareTick = p.beacon(game.Beacon{Tanks: p.positions()}), now
			}
			return p.bare
		},
	}
	switch p.cfg.Protocol {
	case BSYNC:
		opts.SFunc = core.EveryTick
		if p.cfg.MaxBatchTicks > 1 {
			opts.SFunc = core.EveryKTicks(p.cfg.MaxBatchTicks)
		}
		if p.cfg.Interest {
			// Far peers rendezvous less often: the s-function stretches
			// the tick (or batch) period by the symmetric NextDelta
			// distance bound, so SYNC traffic also thins with distance.
			opts.SFunc = p.interestPacedSFunc()
		}
	default:
		opts.SFunc = func(peer int, now int64, peerBeacon []int64) int64 {
			kp := &p.known[peer] // OnBeacon ran just before this
			if !kp.present || len(kp.beacon.Tanks) == 0 {
				return now + 1 // peer about to vanish; DONE will arrive
			}
			return now + game.NextDelta(h, p.positions(), p.pendingBox(peer), kp.beacon.Tanks, kp.beacon.Box)
		}
	}
	if p.cfg.Protocol != BSYNC || bounded {
		// Plain BSYNC broadcasts to everyone each tick: the gate would
		// have no term that withholds, so it is not installed.
		opts.SendData = p.gate
	}
	return opts
}
