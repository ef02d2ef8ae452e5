// Package core implements the S-DSO runtime: the library the paper's §3.1
// describes. It offers the paper's calls — share, exchange, async_put,
// sync_put, async_get, sync_get — on top of a transport endpoint, and keeps
// the lookahead machinery: a logical system clock that advances one tick per
// exchange, the exchange-list of (exchange-time, process) pairs, the slotted
// buffer of per-process pending object diffs, and buffering of "early"
// messages stamped ahead of the local clock.
//
// Consistency protocols are configurations of this runtime:
//
//   - BSYNC passes an s-function that schedules every peer at every tick
//     and exchanges with resync (push-pull) semantics.
//   - MSYNC/MSYNC2 pass the distance-halving s-function and a spatial data
//     filter choosing which peers receive data (versus a bare SYNC).
//   - Entry consistency uses the put/get primitives together with the lock
//     manager in internal/lockmgr (see internal/protocol/ec).
//
// Rendezvous symmetry. The lookahead schedule is pairwise: after processes
// i and j exchange at tick T they both compute the next exchange tick
// T' = sfunc(...). For the schedule to stay agreed (and hence deadlock-free)
// both sides must evaluate the s-function over identical inputs. The runtime
// therefore lets the application attach a small "beacon" (a few int64s — the
// game uses tank coordinates) to every SYNC message; at a rendezvous each
// side hands the peer's beacon to the s-function. Data payloads (object
// diffs) may be filtered spatially without breaking symmetry because beacons
// always flow.
package core

import (
	"errors"
	"fmt"
	"time"

	"sdso/internal/diff"
	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/trace"
	"sdso/internal/transport"
	"sdso/internal/wire"
	"sdso/internal/xlist"
)

// SFunc is a semantic function: given a peer, the current logical tick, and
// the peer's beacon from the rendezvous just completed, it returns the next
// tick at which the local process must exchange with that peer. It must
// return a value strictly greater than now, and — for deadlock freedom —
// must be symmetric: both rendezvous partners, evaluating their own SFunc
// with the other's beacon, must produce the same tick.
type SFunc func(peer int, now int64, peerBeacon []int64) int64

// EveryTick is the BSYNC s-function: exchange with everyone at every tick.
func EveryTick(peer int, now int64, _ []int64) int64 { return now + 1 }

// EveryKTicks returns the tick-batching s-function: exchange with everyone
// every k ticks. Between rendezvous, writes buffer (and merge) in the
// slotted buffer, so one DATA frame carries k logical ticks' modifications
// — the batching legality comes from the exchange list itself: a tick with
// no peer due performs no blocking receive, so folding it is safe for any
// protocol whose s-function all processes share. k of 1 is EveryTick.
func EveryKTicks(k int64) SFunc {
	if k <= 1 {
		return EveryTick
	}
	return func(peer int, now int64, _ []int64) int64 { return now + k }
}

// SendMode selects multicast (exchange-list driven) or broadcast delivery,
// mirroring the paper's send_t.
type SendMode int

// Send modes.
const (
	// Multicast exchanges only with the processes due in the
	// exchange-list.
	Multicast SendMode = iota + 1
	// Broadcast forces this exchange (and all buffered modifications) out
	// to every live process immediately.
	Broadcast
)

// ExchangeOpts parameterizes one exchange() call, mirroring the paper's
// argument list (resync_flag, how, s_func, arg — the arg is closed over by
// the Go closures).
type ExchangeOpts struct {
	// Resync selects push-pull mode: the call blocks until every process
	// exchanged-with this tick has exchanged back. Without it, exchange
	// pushes updates and returns.
	Resync bool
	// How selects multicast (default) or broadcast delivery.
	How SendMode
	// SFunc recomputes the next exchange time for each rendezvous
	// partner. Required when Resync is set.
	SFunc SFunc
	// SendData decides whether object data flows to a peer this
	// rendezvous (the spatial filter). Nil means always send. Withheld
	// diffs stay buffered in the peer's slot.
	SendData func(peer int) bool
	// GroupWithheldSyncs ships the bare SYNCs of peers SendData withheld
	// after the per-peer loop, one frame encode per distinct beacon (see
	// sendSyncFanout), instead of inline in peer order. Grouping reorders
	// the tick's sends, so it is a property of the filter, set where the
	// filter is built: a filter that withholds from most peers at scale
	// (interest sets, shard residency) wins by grouping, while the
	// paper's plain MSYNC filters withhold from few and keep peer order.
	GroupWithheldSyncs bool
	// Beacon supplies the local coordination payload carried on the SYNC
	// message to each peer. It is evaluated per peer after that peer's
	// data (if any) has been flushed, so it can accurately describe what
	// remains buffered (the game advertises its "dirty box" this way).
	// Nil means empty.
	Beacon func(peer int) []int64
	// Timeout overrides Config.RendezvousTimeout for this call; zero
	// inherits the config value.
	Timeout time.Duration
}

// Config assembles a runtime.
type Config struct {
	// Endpoint connects the runtime to its peer group. Required.
	Endpoint transport.Endpoint
	// Metrics receives counters; nil allocates a private collector.
	Metrics *metrics.Collector
	// MergeDiffs enables the slotted buffer's diff merging (paper §3.1
	// optimization; on by default in protocols, off in the ablation).
	MergeDiffs bool
	// DeltaEncode switches DATA payloads to the delta-capable record
	// encoding: each object record may be an XOR delta against the last
	// state of that object the destination provably consumed (see
	// delta.go). Off by default: the disabled path's frames are
	// byte-identical to the plain encoding.
	DeltaEncode bool
	// MaxBatchTicks documents the tick-batching factor the driving
	// protocol applies through its s-function (core.EveryKTicks): the
	// runtime itself needs no behavioral change — ticks between scheduled
	// rendezvous simply buffer (and merge) their writes — but a value
	// above 1 enables the ticks_batched counter so the batching actually
	// achieved is observable.
	MaxBatchTicks int64
	// FirstExchange is the tick of the initial rendezvous with every
	// peer; zero means tick 1 (everyone synchronizes once at the start,
	// which seeds the beacons).
	FirstExchange int64
	// OnBeacon, when set, is invoked with each peer's beacon as a
	// rendezvous with that peer completes.
	OnBeacon func(peer int, beacon []int64)
	// Debug, when set, receives a line per notable runtime event
	// (rendezvous targets, data application, DONE processing); used by
	// tests to diff executions.
	Debug func(event string)

	// InitialMembers, when non-nil, lists the process IDs present at the
	// start of the game (the local ID is implied). Peers not listed are
	// absent — late joiners that will enter via Join — and are excluded
	// from exchanges, writes, and completion accounting until a join
	// request from them arrives. Nil means every peer starts as a member.
	InitialMembers []int
	// JoinSlack is the number of ticks between serving a join request and
	// the joiner's first rendezvous with this process — the "next epoch
	// boundary" granted to a joiner. It must exceed zero so the admission
	// tick is strictly in this process's future; zero means
	// DefaultJoinSlack.
	JoinSlack int64
	// OnJoin, when set, is invoked after peer is (re)admitted into the
	// membership by a join request, before the admission is acknowledged.
	// Protocols use it to reset per-peer knowledge (cached enemy
	// positions, spatial filters) so the first rendezvous with the joiner
	// resends a full picture.
	OnJoin func(peer int)

	// Trace, when set, records this process's observation history — clock
	// ticks, schedule changes, data sends/applies, SYNC receipt,
	// membership transitions — for the consistency oracle in
	// internal/check. Nil (the default) disables tracing; the hot paths
	// then pay a single nil check and allocate nothing.
	Trace *trace.Recorder

	// CheckpointEvery enables replicated checkpoint streaming: at every
	// epoch boundary (a tick divisible by CheckpointEvery) the process
	// snapshots its store and streams the blob to CheckpointF+1 peers,
	// which vault the freshest blob per origin. When the origin is later
	// evicted, vault holders merge and relay its blob so its committed
	// writes survive; when it rejoins, the blob comes back with the join
	// reply — recovery no longer depends on any original holder being
	// alive. Zero (the default) disables streaming entirely: no extra
	// messages, frames, or bytes, keeping the non-replicated path
	// byte-identical.
	CheckpointEvery int64
	// CheckpointF is the crash budget f the checkpoint stream tolerates:
	// each checkpoint goes to f+1 distinct peers (ring order from the
	// local ID), so at least one copy survives any f failures. Zero means
	// DefaultCheckpointF when CheckpointEvery is set.
	CheckpointF int

	// RendezvousTimeout enables failure detection: a blocking wait
	// (rendezvous or sync put/get reply) that stays silent this long marks
	// the awaited peer suspected, retransmits the unacknowledged message,
	// and doubles the wait (bounded exponential backoff). After
	// MaxRetransmits unanswered retransmissions the peer is declared
	// crashed and evicted. Zero keeps the legacy fail-free behavior:
	// waits block forever. On the simulated transport the timeout is
	// virtual time, so detection stays deterministic.
	RendezvousTimeout time.Duration
	// MaxRetransmits bounds the retransmissions per suspicion episode;
	// zero means DefaultMaxRetransmits.
	MaxRetransmits int
}

// DefaultMaxRetransmits is the eviction threshold used when
// Config.MaxRetransmits is zero: a silent peer is declared crashed after
// this many unanswered retransmissions (plus the initial send).
const DefaultMaxRetransmits = 3

// DefaultJoinSlack is the admission distance used when Config.JoinSlack is
// zero: a joiner is scheduled two ticks past the serving process's clock,
// leaving one full tick for the acknowledgment and snapshot to land.
const DefaultJoinSlack = 2

// DefaultCheckpointF is the checkpoint-stream crash budget used when
// Config.CheckpointEvery is set but Config.CheckpointF is zero.
const DefaultCheckpointF = 1

// Runtime is one process's S-DSO instance.
//
// Memory. Peers are the dense integers 0..N-1, so everything the runtime
// keeps per peer lives in one slab (peers) instead of a map per concern,
// and the working sets of Exchange — Exchange is not re-entrant — are
// reusable scratch. Per runtime that is O(N) + O(objects) + O(objects
// actually exchanged with each peer): the per-peer delta tables are sparse
// and created on first use. A dense peer × object table is deliberately
// absent (DESIGN.md, "Ownership and memory").
type Runtime struct {
	ep  transport.Endpoint
	st  *store.Store
	mc  *metrics.Collector
	tr  *trace.Recorder // nil when tracing is off; Record is nil-safe
	cfg Config

	now   int64
	xl    *xlist.List
	buf   *xlist.SlottedBuffer
	peers []peerState // indexed by process ID; the local entry stays zero

	localDone bool
	gameOver  bool  // some process announced DONE with the won flag
	corr      int64 // correlation-stamp counter for put/get replies

	pendingReplies []*wire.Msg // ObjReply messages awaiting a SyncGet
	corrDone       int64       // highest consumed reply correlation stamp

	// Membership state (epoch-numbered views; see View).
	epoch   int64
	joining *joinState // non-nil while Join is collecting admissions

	// vaulting is set when CheckpointEvery > 0: peers' replicated
	// checkpoints are vaulted (peerState.vault) and relayed on eviction.
	vaulting bool

	// deltaPool is the storage under every peer's delta tables.
	deltaPool xlist.Blocks[deltaEntry]

	// Exchange scratch, reused every tick.
	targets     []int // this tick's rendezvous set
	deferred    []int // withheld peers whose bare SYNC fans out grouped
	fanout      []syncGroup
	outstanding int // targets awaitRendezvous still waits on

	// DATA payload scratch (see delta.go): records and XOR bytes being
	// assembled for one frame, the frame's encoding before its one copy
	// into the outgoing message, and the decoded records of the frame
	// being applied.
	encRecs  []xlist.DeltaRecord
	encXOR   []byte
	encBuf   []byte
	decRecs  []xlist.DeltaRecord
	decDiffs []xlist.ObjDiff
}

// peerState is everything the runtime knows about one remote process.
type peerState struct {
	done    bool // announced completion
	crashed bool // evicted as crashed
	absent  bool // late joiner not yet admitted

	// Early (future-stamped) traffic: SYNC beacons seen ahead of the local
	// clock, and DATA messages buffered unapplied.
	earlySync []earlySync
	earlyData []*wire.Msg

	// Failure detection (active when RendezvousTimeout > 0).
	syncSeen int64    // highest consumed SYNC stamp
	lastSync sentSync // last SYNC sent to the peer (echo and retransmit source)
	prevSync sentSync // the one before it (echo source for a peer a rendezvous behind)

	// Join: the admission tick granted to the peer and the incarnation it
	// was granted to.
	granted   bool
	joinGrant int64
	joinInc   int64

	// Checkpoint replication: the freshest vaulted blob with the peer as
	// origin, and whether it was already merged-and-relayed after an
	// eviction.
	vaulted bool
	relayed bool
	vault   vaultEntry

	// Delta-encoding state (see delta.go): the sender and receiver halves
	// of the acked-version table. The receiver half is maintained even when
	// DeltaEncode is off locally, so a runtime can always decode a
	// delta-encoding peer.
	send deltaSendState
	recv deltaTable

	// Rendezvous scratch, valid only for the tick it is stamped with.
	beacon   []int64 // the peer's SYNC beacon for tick syncTick
	syncTick int64   // tick whose SYNC from the peer is in hand
	waitTick int64   // tick awaitRendezvous is waiting on the peer for
}

// sentSync is what the runtime keeps of a SYNC it sent — the values, never
// the message, which Send gave away. The echo and retransmit paths build a
// fresh message from it; the beacon is shared with every message that
// carried it and is immutable. A zero stamp means none was sent.
type sentSync struct {
	stamp  int64
	beacon []int64
}

// sent records the SYNC (bare or riding a DATA frame) just sent to the peer.
// Two are kept: the local process passed rendezvous k only on the peer's
// SYNC(k), so the peer can be missing ours for k or the one after, no older.
func (ps *peerState) sent(stamp int64, beacon []int64) {
	ps.prevSync, ps.lastSync = ps.lastSync, sentSync{stamp: stamp, beacon: beacon}
}

// earlySync is one SYNC held until the local clock reaches its stamp.
type earlySync struct {
	stamp  int64
	beacon []int64
}

// gone reports whether the peer is not participating — announced done,
// evicted as crashed, or absent (not yet joined).
func (ps *peerState) gone() bool { return ps.done || ps.crashed || ps.absent }

// vaultEntry is one replicated checkpoint: an origin's store snapshot at
// its clock stamp.
type vaultEntry struct {
	stamp int64
	snap  []byte
}

// Errors returned by the runtime.
var (
	ErrDone       = errors.New("core: process already announced done")
	ErrNeedsSFunc = errors.New("core: resync exchange requires an s-function")
	// ErrEvicted reports that a peer a synchronous operation depended on
	// was evicted as crashed. Match it with errors.Is.
	ErrEvicted = errors.New("core: peer evicted as crashed")
	// ErrSyncTimeout reports that a synchronous wait (a SyncGet/SyncPut
	// reply) exhausted its retransmission budget before an answer came.
	// Errors from that path match both ErrSyncTimeout and ErrEvicted.
	ErrSyncTimeout = errors.New("core: synchronous wait timed out")
	// ErrJoinFailed reports that a Join received no admission from any
	// live peer (everyone is dead, done, or unreachable).
	ErrJoinFailed = errors.New("core: join failed: no live peer answered")
)

// ErrPeerCrashed is the former name of ErrEvicted, kept so existing
// errors.Is call sites keep matching.
var ErrPeerCrashed = ErrEvicted

// New builds a runtime over the endpoint. Objects are registered afterwards
// via Share, before the first Exchange.
func New(cfg Config) (*Runtime, error) {
	if cfg.Endpoint == nil {
		return nil, errors.New("core: config requires an endpoint")
	}
	mc := cfg.Metrics
	if mc == nil {
		mc = metrics.NewCollector()
	}
	ep := cfg.Endpoint
	first := cfg.FirstExchange
	if first == 0 {
		first = 1
	}
	r := &Runtime{
		ep:       ep,
		st:       store.New(),
		mc:       mc,
		tr:       cfg.Trace,
		cfg:      cfg,
		xl:       xlist.NewList(),
		buf:      xlist.NewSlottedBuffer(ep.ID(), ep.N(), cfg.MergeDiffs),
		peers:    make([]peerState, ep.N()),
		vaulting: cfg.CheckpointEvery > 0,
	}
	if r.vaulting && r.cfg.CheckpointF <= 0 {
		r.cfg.CheckpointF = DefaultCheckpointF
	}
	if cfg.InitialMembers != nil {
		for peer := range r.peers {
			r.peers[peer].absent = peer != ep.ID()
		}
		for _, p := range cfg.InitialMembers {
			if p >= 0 && p < len(r.peers) {
				r.peers[p].absent = false
			}
		}
	}
	for peer := range r.peers {
		switch {
		case peer == ep.ID():
		case r.peers[peer].absent:
			r.buf.Drop(peer)
		default:
			r.xl.Set(peer, first)
			r.tr.Record(trace.OpSched, peer, 0, 0, 0, first)
		}
	}
	return r, nil
}

// ID returns the local process identity.
func (r *Runtime) ID() int { return r.ep.ID() }

// N returns the group size.
func (r *Runtime) N() int { return r.ep.N() }

// Now returns the logical system clock (ticks advanced by Exchange).
func (r *Runtime) Now() int64 { return r.now }

// Store exposes the local object replicas.
func (r *Runtime) Store() *store.Store { return r.st }

// Metrics exposes the collector.
func (r *Runtime) Metrics() *metrics.Collector { return r.mc }

// PeerDone reports whether peer has announced completion.
func (r *Runtime) PeerDone(peer int) bool { return r.peers[peer].done }

// PeerCrashed reports whether peer was evicted as crashed (silent past the
// suspicion threshold, or its connection broke without a DONE).
func (r *Runtime) PeerCrashed(peer int) bool { return r.peers[peer].crashed }

// PeerAbsent reports whether peer has not yet joined the game (it was
// excluded from Config.InitialMembers and no join request has arrived).
func (r *Runtime) PeerAbsent(peer int) bool { return r.peers[peer].absent }

// PeerGone reports whether peer is not participating — announced done,
// evicted as crashed, or absent (not yet joined).
func (r *Runtime) PeerGone(peer int) bool { return r.peers[peer].gone() }

// View is an epoch-numbered membership view: the live members (including
// the local process) as of the view's epoch. The epoch increments on every
// membership event — an eviction, a completion, or a (re)admission — so
// equal epochs at one process imply identical member sets.
type View struct {
	Epoch   int64
	Members []int // ascending, including the local process
}

// Epoch returns the current membership epoch.
func (r *Runtime) Epoch() int64 { return r.epoch }

// View returns the current membership view.
func (r *Runtime) View() View {
	members := make([]int, 0, len(r.peers))
	for peer := range r.peers {
		if peer == r.ep.ID() || !r.peers[peer].gone() {
			members = append(members, peer)
		}
	}
	return View{Epoch: r.epoch, Members: members}
}

// PendingObjects returns the IDs of objects with modifications buffered for
// peer but not yet sent (spatial s-functions use this to advertise the
// local "dirty region").
func (r *Runtime) PendingObjects(peer int) []store.ID { return r.buf.Objects(peer) }

// AppendPendingObjects appends PendingObjects(peer) to dst, for callers
// that ask every tick and keep a buffer.
func (r *Runtime) AppendPendingObjects(dst []store.ID, peer int) []store.ID {
	return r.buf.AppendObjects(dst, peer)
}

// LivePeers returns the peers that have neither announced done nor been
// evicted as crashed, ascending.
func (r *Runtime) LivePeers() []int { return r.appendLivePeers(nil) }

// appendLivePeers appends LivePeers to dst.
func (r *Runtime) appendLivePeers(dst []int) []int {
	for peer := range r.peers {
		if peer != r.ep.ID() && !r.peers[peer].gone() {
			dst = append(dst, peer)
		}
	}
	return dst
}

// Share registers a shared object with its initial state — the paper's
// share() call, used once per object at initialization.
//
// The registered initial state is the universal delta baseline (see
// delta.go): every process registers the same objects with the same initial
// bytes, so a missing entry in either half of the acked-version table means
// "the initial state" and even a first record can be delta-encoded.
func (r *Runtime) Share(id store.ID, initial []byte) error {
	return r.st.Register(id, initial)
}

// ShareAll is Share for a whole initial environment at once, by reference:
// the replica reads b and never writes it, so every runtime of a process
// may stand on the same one. It must be the runtime's only registration,
// and b must not change afterwards.
func (r *Runtime) ShareAll(b *store.Baseline) error {
	return r.st.RegisterAll(b)
}

// Write applies a local modification to a shared object and buffers the
// update for every live peer. It does not communicate; the next Exchange
// distributes (or continues to buffer) the change.
//
// What is buffered is a whole-state replacement at the object's new
// version, not the byte-level diff of this write. Different processes may
// write the same object at different ticks, and a receiver can meet their
// updates in any order; version-gated replacements make application
// commutative (the highest version wins regardless of arrival order),
// whereas byte-run diffs would patch the wrong base. Versions are sound to
// compare across writers because a process only writes an object while the
// consistency protocol guarantees its replica of that object is fresh, so
// each write's version extends the true chain. The paper's diff machinery
// (internal/diff) still carries the updates — a replacement is one kind of
// diff — and slotted-buffer merging still collapses successive writes.
func (r *Runtime) Write(id store.ID, data []byte) error {
	// The store's fresh copy is the published state; the buffered
	// replacement shares it.
	state, ver, changed, err := r.st.WriteBy(id, data, r.ep.ID())
	if err != nil {
		return fmt.Errorf("write object %d: %w", id, err)
	}
	if !changed {
		return nil
	}
	if r.cfg.Debug != nil { // the variadic call boxes its arguments either way
		r.debugf("now=%d write obj=%d", r.now, id)
	}
	r.tr.Record(trace.OpWrite, r.ep.ID(), int64(id), ver, r.now, 0)
	// Done, crashed and absent peers need no skip list: their slots are
	// tombstoned and accumulate nothing.
	repl := diff.Diff{Replace: true, Len: len(state), Runs: []diff.Run{{Off: 0, Data: state}}}
	return r.buf.AddAll(id, ver, repl, nil)
}

// send transmits m and counts it. A sent message is given away
// (transport.Endpoint.Send): callers keep values, never m.
func (r *Runtime) send(to int, m *wire.Msg) error {
	r.mc.CountSend(m, m.EncodedSize())
	return r.ep.Send(to, m)
}

// newSync builds a SYNC in a pooled struct; beacon is shared, not copied.
func newSync(stamp int64, beacon []int64, mode uint8) *wire.Msg {
	m := wire.GetMsg()
	m.Kind, m.Stamp, m.Mode, m.Ints = wire.KindSync, stamp, mode, beacon
	return m
}

// newData builds the DATA message carrying diffs to peer, stamped stamp, in
// a pooled struct whose Payload capacity takes the encoding. marker is the
// SYNC (with its beacon) or DONE mode bits riding on the frame.
func (r *Runtime) newData(peer int, diffs []xlist.ObjDiff, stamp int64, marker uint8, beacon []int64) *wire.Msg {
	m := wire.GetMsg()
	m.Kind, m.Stamp, m.Ints = wire.KindData, stamp, beacon
	m.Payload, m.Mode = r.encodeDataPayload(m.Payload, peer, diffs, stamp)
	m.Mode |= marker
	return m
}

// Exchange is the paper's exchange() call (Figure 4): advance the logical
// clock, ship buffered and current modifications to the processes due now,
// and — in resync mode — block until each of them has exchanged back, then
// use the s-function to schedule the next rendezvous with each.
func (r *Runtime) Exchange(opts ExchangeOpts) error {
	if r.localDone {
		return ErrDone
	}
	if opts.Resync && opts.SFunc == nil {
		return ErrNeedsSFunc
	}
	if opts.How == 0 {
		opts.How = Multicast
	}
	startWall := r.ep.Now()
	r.now++
	r.mc.AddTick()
	r.tr.Record(trace.OpTick, -1, 0, 0, r.now, 0)

	// Determine this tick's rendezvous set.
	targets := r.targets[:0]
	switch opts.How {
	case Broadcast:
		targets = r.appendLivePeers(targets)
	default:
		for _, e := range r.xl.Due(r.now) {
			if ps := &r.peers[e.Proc]; !ps.done && !ps.crashed {
				targets = append(targets, e.Proc)
			}
		}
	}
	r.targets = targets

	if r.cfg.MaxBatchTicks > 1 && opts.How == Multicast && len(targets) == 0 {
		// A tick folded into the next rendezvous's frame by the batching
		// s-function: its writes stay buffered (and merge).
		r.mc.AddTickBatched()
	}

	// Apply any buffered early traffic that has become current; note the
	// beacons of partners whose SYNC already arrived.
	r.absorbEarly()

	// Send each target one frame (DESIGN.md §15, the frame rule): DATA
	// carrying the SYNC marker and the beacon when data flows, a bare SYNC
	// otherwise. Broadcast mode "forces the modifications ... as well as
	// all buffered modifications to be immediately flushed to all remote
	// processes" (paper §3.1): the spatial filter does not apply. A send
	// that fails with transport.ErrPeerGone (TCP peer hung up without a
	// DONE) is a crash observation: the peer is evicted and the exchange
	// proceeds with the survivors.
	//
	// Every message comes from the wire pool and is given away by send: the
	// in-memory and simulated transports hand the receiver this very
	// struct, which the receiver recycles once consumed, so structs and
	// payloads circulate instead of being allocated per rendezvous, and
	// nothing here keeps a sent message (lastSync is a value). Beacons are
	// shared between messages, read-only.
	deferred := r.deferred[:0] // filtered-out peers whose bare SYNC fans out grouped
	for _, peer := range targets {
		ps := &r.peers[peer]
		if ps.crashed {
			continue
		}
		sendData := opts.How == Broadcast || opts.SendData == nil || opts.SendData(peer)
		if r.tr != nil && !sendData {
			for _, obj := range r.buf.Objects(peer) {
				r.tr.Record(trace.OpWithheld, peer, int64(obj), 0, r.now, 0)
			}
		}
		if opts.GroupWithheldSyncs && !sendData {
			// The withheld peers are the common case at scale and their
			// bare SYNCs usually share a beacon (same tanks, same
			// buffered box), so they are fanned out after the loop with
			// one encode per distinct beacon.
			deferred = append(deferred, peer)
			continue
		}
		var diffs []xlist.ObjDiff
		if sendData && r.buf.Pending(peer) > 0 {
			diffs = r.buf.Flush(peer)
		}
		var beacon []int64 // evaluated after the flush: describes what stays buffered
		if opts.Beacon != nil {
			beacon = opts.Beacon(peer)
		}
		var m *wire.Msg
		if len(diffs) > 0 {
			m = r.newData(peer, diffs, r.now, wire.ModeSyncPiggyback, beacon)
		} else {
			m = newSync(r.now, beacon, 0)
		}
		if err := r.send(peer, m); err != nil {
			if errors.Is(err, transport.ErrPeerGone) {
				r.evictPeer(peer)
				continue
			}
			return fmt.Errorf("exchange with %d: %w", peer, err)
		}
		if len(diffs) > 0 {
			r.traceDataSend(peer, diffs, r.now)
			r.mc.AddPiggybackedSync()
		}
		ps.sent(r.now, beacon) // retransmits and echoes are always bare SYNCs
	}
	r.deferred = deferred
	if err := r.sendSyncFanout(deferred, opts); err != nil {
		return err
	}
	// Barrier: release whatever the transport coalesced before blocking on
	// (or returning control ahead of) the peers' answers.
	r.flush()

	if opts.Resync {
		timeout := opts.Timeout
		if timeout <= 0 {
			timeout = r.cfg.RendezvousTimeout
		}
		if err := r.awaitRendezvous(targets, timeout); err != nil {
			return err
		}
		// Reschedule every partner that is still live.
		for _, peer := range targets {
			ps := &r.peers[peer]
			if ps.done || ps.crashed {
				continue
			}
			var pb []int64
			if ps.syncTick == r.now {
				pb = ps.beacon
			}
			if r.cfg.OnBeacon != nil {
				r.cfg.OnBeacon(peer, pb)
			}
			next := opts.SFunc(peer, r.now, pb)
			if next <= r.now {
				return fmt.Errorf("core: s-function scheduled peer %d at %d, not after now=%d", peer, next, r.now)
			}
			if r.cfg.Debug != nil {
				r.debugf("now=%d reschedule peer=%d next=%d", r.now, peer, next)
			}
			r.tr.Record(trace.OpRendezvous, peer, 0, 0, r.now, next)
			r.xl.Set(peer, next)
		}
	}

	if r.cfg.CheckpointEvery > 0 && r.now%r.cfg.CheckpointEvery == 0 {
		r.streamCheckpoint()
	}

	r.mc.AddTime(metrics.CatExchange, r.ep.Now()-startWall)
	return nil
}

// streamCheckpoint snapshots the local store and streams the blob to the
// first CheckpointF+1 live peers in ring order: any f failures leave at
// least one copy outside the crash set, so the local process's committed
// writes survive even if every peer that exchanged with it is gone too.
// Called only at epoch boundaries (CheckpointEvery > 0).
func (r *Runtime) streamCheckpoint() {
	snap := r.st.Snapshot(r.now)
	if len(snap) == 0 {
		return
	}
	self, n := r.ep.ID(), r.ep.N()
	want := r.cfg.CheckpointF + 1
	sent := 0
	r.mc.AddQuorumRound()
	for d := 1; d < n && sent < want; d++ {
		peer := (self + d) % n
		if r.peers[peer].gone() {
			continue
		}
		m := &wire.Msg{Kind: wire.KindCkpt, Stamp: r.now, Obj: uint32(self), Payload: snap}
		if err := r.send(peer, m); err != nil {
			if errors.Is(err, transport.ErrPeerGone) {
				r.evictPeer(peer)
				continue
			}
			return // best-effort: a lost checkpoint only weakens this epoch's copy count
		}
		r.mc.AddSnapshotBytes(len(snap))
		sent++
	}
	if sent > 0 {
		r.flush()
	}
}

// handleCkpt vaults a replicated checkpoint. Each origin keeps only its
// freshest blob; a blob for an already-crashed origin (or, after a restart,
// for the local process itself) is merged into the live store immediately —
// that is the recovery path the stream exists for.
func (r *Runtime) handleCkpt(m *wire.Msg) {
	origin := int(m.Obj)
	if !r.vaulting || origin >= len(r.peers) {
		return // replication not enabled here, or no such origin; drop
	}
	if origin == r.ep.ID() {
		// Our own pre-crash state coming back after a restart.
		if adopted, _, err := r.st.Merge(m.Payload); err == nil && adopted > 0 {
			r.mc.AddReplicaCatchup()
		}
		return
	}
	ps := &r.peers[origin]
	if ps.vaulted && ps.vault.stamp >= m.Stamp {
		return
	}
	ps.vault, ps.vaulted = vaultEntry{stamp: m.Stamp, snap: m.Payload}, true
	ps.relayed = false
	r.debugf("now=%d vault ckpt origin=%d stamp=%d bytes=%d", r.now, origin, m.Stamp, len(m.Payload))
	if ps.crashed {
		// The origin is already gone: fold its writes in right away.
		r.relayVault(origin)
	}
}

// relayVault merges an evicted origin's vaulted checkpoint into the local
// store and relays the blob to every live peer, so the crashed process's
// committed writes propagate even to peers outside its checkpoint set (and
// outside its exchange range, under spatial withholding). Idempotent per
// (origin, blob); best-effort on the wire.
func (r *Runtime) relayVault(origin int) {
	o := &r.peers[origin]
	if !o.vaulted || o.relayed {
		return
	}
	e := o.vault
	o.relayed = true
	if _, _, err := r.st.Merge(e.snap); err != nil {
		return
	}
	r.mc.AddReplicaCatchup()
	sent := 0
	for peer := range r.peers {
		if peer == r.ep.ID() || r.peers[peer].gone() {
			continue
		}
		m := &wire.Msg{Kind: wire.KindCkpt, Stamp: e.stamp, Obj: uint32(origin), Payload: e.snap}
		if err := r.send(peer, m); err != nil {
			if errors.Is(err, transport.ErrPeerGone) {
				r.evictPeer(peer)
			}
			continue
		}
		r.mc.AddSnapshotBytes(len(e.snap))
		sent++
	}
	if sent > 0 {
		r.flush()
	}
}

// absorbEarly moves buffered early messages whose stamp is now current into
// effect, in ascending peer order: DATA payloads are applied, then SYNC
// beacons are noted as this tick's.
func (r *Runtime) absorbEarly() {
	for peer := range r.peers {
		ps := &r.peers[peer]
		if len(ps.earlyData) == 0 {
			continue
		}
		keep := ps.earlyData[:0]
		for _, m := range ps.earlyData {
			if m.Stamp <= r.now {
				r.applyData(m)
				r.recycle(m)
			} else {
				keep = append(keep, m)
			}
		}
		clear(ps.earlyData[len(keep):])
		ps.earlyData = keep
	}
	for peer := range r.peers {
		ps := &r.peers[peer]
		best := int64(-1)
		for _, es := range ps.earlySync {
			if es.stamp <= r.now && es.stamp > best {
				best = es.stamp
				ps.beacon = es.beacon
			}
		}
		if best < 0 {
			continue
		}
		r.tr.Record(trace.OpSyncRecv, peer, 0, 0, r.now, best)
		ps.syncTick = r.now
		if best > ps.syncSeen {
			ps.syncSeen = best
			r.deltaAck(peer, best)
		}
		keep := ps.earlySync[:0]
		for _, es := range ps.earlySync {
			if es.stamp > r.now {
				keep = append(keep, es)
			}
		}
		clear(ps.earlySync[len(keep):])
		ps.earlySync = keep
	}
}

// settle stops awaitRendezvous waiting on peer (its SYNC arrived, it
// announced DONE, or it was evicted).
func (r *Runtime) settle(ps *peerState) {
	if ps.waitTick == r.now {
		ps.waitTick = 0
		r.outstanding--
	}
}

// onSync completes the rendezvous with peer when awaitRendezvous is waiting
// on it: its beacon becomes this tick's and its stamp feeds the ack table.
func (r *Runtime) onSync(peer int, beacon []int64, stamp int64) {
	ps := &r.peers[peer]
	if ps.waitTick != r.now {
		return
	}
	ps.beacon, ps.syncTick = beacon, r.now
	r.settle(ps)
	if stamp > ps.syncSeen {
		ps.syncSeen = stamp
		r.deltaAck(peer, stamp)
	}
}

// awaitRendezvous blocks until every target has answered this tick's
// exchange with a SYNC (or announced DONE). With a timeout, silent targets
// become suspects: the unacknowledged SYNC is retransmitted under bounded
// exponential backoff, and after maxRetransmits strikes the stragglers are
// evicted as crashed and the rendezvous completes among the survivors.
func (r *Runtime) awaitRendezvous(targets []int, timeout time.Duration) error {
	r.outstanding = 0
	for _, peer := range targets {
		ps := &r.peers[peer]
		if ps.done || ps.crashed || ps.syncTick == r.now {
			continue
		}
		ps.waitTick = r.now
		r.outstanding++
	}
	if timeout <= 0 {
		for r.outstanding > 0 {
			m, err := r.ep.Recv()
			if err != nil {
				return fmt.Errorf("exchange recv at tick %d: %w", r.now, err)
			}
			r.dispatch(m, true)
			r.flush() // dispatch may have answered (echo, object serve)
		}
		return nil
	}
	wait := timeout
	retries := 0
	suspected := false
	for r.outstanding > 0 {
		m, ok, err := r.ep.RecvTimeout(wait)
		if err != nil {
			return fmt.Errorf("exchange recv at tick %d: %w", r.now, err)
		}
		if ok {
			r.dispatch(m, true)
			r.flush() // dispatch may have answered (echo, object serve)
			continue
		}
		// Timeout: every remaining straggler becomes a suspect.
		if !suspected {
			suspected = true
			for i := 0; i < r.outstanding; i++ {
				r.mc.AddSuspect()
			}
		}
		// A straggler the transport has positive evidence against — a
		// socket broken past its reconnect grace — gets no retransmit
		// budget: retransmitting into a dead link cannot help, so evict
		// now. Merely slow peers (the transport reports nothing) keep
		// the full budget.
		for _, peer := range targets {
			if r.peers[peer].waitTick == r.now && transport.PeerGone(r.ep, peer) {
				r.evictPeer(peer)
			}
		}
		retries++
		if retries > r.maxRetransmits() {
			// Evictions land in target order, which is deterministic.
			for _, peer := range targets {
				if r.peers[peer].waitTick == r.now {
					r.evictPeer(peer)
				}
			}
			return nil
		}
		for _, peer := range targets {
			ps := &r.peers[peer]
			if ps.waitTick != r.now {
				continue
			}
			// The SYNC this tick sent the peer, if one was.
			ls := ps.lastSync
			if ls.stamp != r.now {
				continue
			}
			if err := r.send(peer, newSync(ls.stamp, ls.beacon, modeRetransmit)); err != nil {
				if errors.Is(err, transport.ErrPeerGone) {
					r.evictPeer(peer)
					continue
				}
				return fmt.Errorf("retransmit sync to %d: %w", peer, err)
			}
			r.mc.AddRetransmit()
		}
		r.flush()
		if wait < 8*timeout {
			wait *= 2
		}
	}
	return nil
}

// maxRetransmits resolves the configured eviction threshold.
func (r *Runtime) maxRetransmits() int {
	if r.cfg.MaxRetransmits > 0 {
		return r.cfg.MaxRetransmits
	}
	return DefaultMaxRetransmits
}

// evictPeer declares peer crashed: it is removed from the exchange list,
// its buffered outbound diffs are dropped, and its pending rendezvous state
// is discarded. Like a DONE, but recorded distinctly — PeerCrashed reports
// it and the eviction is counted in metrics. Early DATA already received
// from the peer survives (a fail-stop process's pre-crash output is valid
// and is absorbed at its stamped tick).
func (r *Runtime) evictPeer(peer int) {
	if peer == r.ep.ID() {
		return
	}
	ps := &r.peers[peer]
	r.settle(ps)
	if ps.done || ps.crashed {
		return
	}
	ps.absent = false // an absent peer that failed to join is crashed
	ps.crashed = true
	r.epoch++
	ps.granted = false // a future rejoin negotiates a fresh admission
	r.mc.AddEviction()
	r.tr.Record(trace.OpEvict, peer, 0, 0, r.now, 0)
	r.debugf("now=%d evict peer=%d epoch=%d", r.now, peer, r.epoch)
	r.xl.Remove(peer)
	r.buf.Drop(peer)
	ps.earlySync = nil
	// Anything the delta tables assumed about the peer died with it; a
	// future readmission must start from full records.
	r.deltaResetPeer(peer)
	// With checkpoint replication on, an eviction is the moment the vault
	// pays off: fold the evictee's last replicated snapshot into the live
	// store and relay it so its committed writes outlive the crash.
	r.relayVault(peer)
}

// traceDataSend records a flushed DATA message and each object diff it
// carried (no-op when tracing is off).
func (r *Runtime) traceDataSend(peer int, diffs []xlist.ObjDiff, stamp int64) {
	if r.tr == nil {
		return
	}
	for _, od := range diffs {
		r.tr.Record(trace.OpSendObj, peer, int64(od.Obj), od.Version, stamp, 0)
	}
	r.tr.Record(trace.OpDataSend, peer, 0, 0, stamp, int64(len(diffs)))
}

// flush releases whatever frames the transport has coalesced since the
// last barrier; a no-op on transports without deferred flushing.
func (r *Runtime) flush() { _ = transport.Flush(r.ep) }

// recycle returns a fully consumed incoming message to the transport's
// free-list, from which the next outgoing message is taken (newSync,
// newData): a delivered message is the receiver's alone, so this closes the
// cycle. Nothing may reference the struct or its Payload afterwards;
// beacons retained past this point (earlySync, peerState.beacon) are safe
// because transports detach Ints themselves (see transport.Recycler).
func (r *Runtime) recycle(m *wire.Msg) { transport.Recycle(r.ep, m) }

// dispatch routes one incoming message. rendezvous is set by
// awaitRendezvous: SYNC content stamped with the current tick then
// completes the sender's rendezvous (onSync) instead of being held.
// Messages fully consumed by the routing are recycled back to the
// transport's pool.
func (r *Runtime) dispatch(m *wire.Msg, rendezvous bool) {
	if r.consume(m, rendezvous) {
		r.recycle(m)
	}
}

// consume routes m and reports whether it was fully consumed (true) or
// retained by the runtime — buffered as early data or parked as a pending
// reply — and therefore must not be recycled.
func (r *Runtime) consume(m *wire.Msg, rendezvous bool) bool {
	peer := int(m.Src)
	if peer < 0 || peer >= len(r.peers) {
		return true // not from a member of this group
	}
	// Join traffic is routed before the crashed/absent gate: a join
	// request from an evicted or absent peer is exactly the expected way
	// back in, and a joiner holds every peer absent until its ack lands.
	// Join messages are rare; they are left out of the recycling pool.
	switch m.Kind {
	case wire.KindJoinReq:
		r.serveJoin(peer, m)
		return false
	case wire.KindJoinAck:
		r.handleJoinAck(peer, m)
		return false
	case wire.KindSnapshot:
		r.handleSnapshot(peer, m)
		return false
	case wire.KindCkpt:
		// Replicated checkpoints also bypass the gate: a blob can arrive
		// for (or even from) a peer already marked crashed — that is the
		// recovery case the stream exists for. The payload is retained in
		// the vault, so the message is not recycled.
		r.handleCkpt(m)
		return false
	}
	ps := &r.peers[peer]
	if ps.crashed || ps.absent {
		// Other traffic from an evicted (or not-yet-joined) peer is
		// dropped: the eviction decision is final (late messages from a
		// slow-but-live peer must not resurrect half of its state), and
		// an absent peer has no rendezvous to serve until it joins.
		return true
	}
	switch m.Kind {
	case wire.KindData:
		// One frame may carry the sender's whole call to this peer (the
		// frame rule, DESIGN.md §15): the data half is applied or
		// early-buffered first, then the SYNC or DONE marker riding on it
		// is peeled off at arrival, exactly as if a bare marker had followed
		// — the same pair in two frames, which stays accepted.
		early := m.Stamp > r.now
		if early {
			ps.earlyData = append(ps.earlyData, m)
		} else {
			r.applyData(m)
		}
		if m.Mode&wire.ModeSyncPiggyback != 0 {
			r.handleSyncPart(peer, m.Stamp, m.Ints, 0, rendezvous)
		}
		if m.Mode&wire.ModeDonePiggyback != 0 {
			// A final flush is stamped one tick past the DONE it carries.
			r.handleDone(peer, m.Mode&wire.ModeDoneWon != 0, m.Stamp-1)
		}
		return !early
	case wire.KindSync:
		r.handleSyncPart(peer, m.Stamp, m.Ints, m.Mode, rendezvous)
	case wire.KindDone:
		r.handleDone(peer, m.Mode == doneWon, m.Stamp)
	case wire.KindObjReq:
		if m.Mode == modePut {
			r.acceptPut(peer, m)
		} else {
			r.serveObj(peer, m)
		}
	case wire.KindObjReply:
		if m.Mode == modeAuto {
			// Reply to an AsyncGet: apply as soon as it arrives.
			ver := int64(0)
			if len(m.Ints) > 0 {
				ver = m.Ints[0]
			}
			if cur, err := r.st.Version(store.ID(m.Obj)); err == nil && ver >= cur {
				_ = r.st.SetState(store.ID(m.Obj), m.Payload, ver)
				r.tr.Record(trace.OpAdopt, peer, int64(m.Obj), ver, r.now, m.Stamp)
			}
			// Whatever the store decided, the serving peer now assumes we
			// hold exactly this state: realign the shadow (see delta.go).
			r.deltaAdoptReply(peer, store.ID(m.Obj), m.Payload, ver)
			return true
		}
		if m.Stamp != 0 && m.Stamp <= r.corrDone {
			// Stale duplicate of a reply already consumed (the request
			// was retransmitted and answered twice). Correlation stamps
			// are strictly increasing, so the floor identifies them.
			return true
		}
		r.pendingReplies = append(r.pendingReplies, m)
		return false
	default:
		// Unknown traffic for this runtime (e.g., misrouted lock
		// messages) is ignored; the lock-based protocols use their own
		// node loops.
	}
	return true
}

// handleSyncPart processes the SYNC content of an incoming frame — a bare
// KindSync message, or the marker riding a DATA frame (mode 0 in that case:
// retransmissions are always bare).
func (r *Runtime) handleSyncPart(peer int, stamp int64, beacon []int64, mode uint8, rendezvous bool) {
	ps := &r.peers[peer]
	if stamp <= ps.syncSeen {
		// Duplicate of a SYNC already consumed (a retransmission or an
		// injected duplicate). An explicit retransmission means the peer
		// never received our answering SYNC for that tick — re-echo it:
		// the earliest we sent it that is not older (the next
		// rendezvous's, if already sent, it would only hold as early).
		// Echoes are sent unmarked, so one arriving as a duplicate dies
		// here without ping-ponging.
		if mode == modeRetransmit {
			ls := ps.lastSync
			if ps.prevSync.stamp >= stamp {
				ls = ps.prevSync
			}
			if ls.stamp != 0 && ls.stamp >= stamp {
				if err := r.send(peer, newSync(ls.stamp, ls.beacon, 0)); err == nil {
					r.mc.AddRetransmit()
				}
			}
		}
		return
	}
	if stamp > r.now || !rendezvous {
		// Ahead of our clock, or nobody is awaiting a rendezvous
		// right now: hold the SYNC until the matching Exchange.
		r.tr.Record(trace.OpSyncEarly, peer, 0, 0, r.now, stamp)
		for i := range ps.earlySync {
			if ps.earlySync[i].stamp == stamp {
				ps.earlySync[i].beacon = beacon
				return
			}
		}
		ps.earlySync = append(ps.earlySync, earlySync{stamp: stamp, beacon: beacon})
		return
	}
	r.tr.Record(trace.OpSyncRecv, peer, 0, 0, r.now, stamp)
	r.onSync(peer, beacon, stamp)
}

// handleDone marks peer finished as of its DONE stamp. Its final data (if
// any) is the data half of the same frame, or an earlier DATA message (FIFO).
func (r *Runtime) handleDone(peer int, won bool, stamp int64) {
	if won {
		r.gameOver = true
	}
	ps := &r.peers[peer]
	r.settle(ps)
	if ps.done {
		return
	}
	ps.done = true
	r.epoch++
	r.tr.Record(trace.OpPeerDone, peer, 0, 0, r.now, stamp)
	r.debugf("now=%d peerDone peer=%d stamp=%d epoch=%d", r.now, peer, stamp, r.epoch)
	r.xl.Remove(peer)
	r.buf.Drop(peer)
	// Nothing is flushed to a finished peer again: the sender half of its
	// delta table goes back to the pool for the live peers' tables to grow
	// into. The receiver half stays — the final flush below may be a delta.
	r.deltaPool.Put(ps.send.entries)
	ps.send = deltaSendState{}
	// The peer's final flush may already sit in earlyData (stamped one
	// tick ahead of its DONE); it must survive and be absorbed at its
	// stamped tick — dropping it would lose the departing process's last
	// writes. Early SYNCs, by contrast, have no rendezvous left to serve.
	ps.earlySync = nil
}

func (r *Runtime) debugf(format string, args ...any) {
	if r.cfg.Debug != nil {
		r.cfg.Debug(fmt.Sprintf(format, args...))
	}
}

// applyData decodes and applies a DATA message's diff batch. The diffs are
// decoded into scratch whose run data aliases m.Payload; the store copies
// what it keeps.
func (r *Runtime) applyData(m *wire.Msg) {
	if m.Mode&wire.ModeDeltaPayload != 0 {
		r.applyDeltaData(m)
		return
	}
	diffs, err := xlist.DecodeDiffsInto(r.decDiffs, m.Payload)
	if err != nil {
		// Corrupt payloads are dropped; shared state stays at the last
		// good version and the next rendezvous re-syncs.
		return
	}
	r.decDiffs = diffs
	if r.cfg.Debug != nil {
		objs := ""
		for _, od := range diffs {
			objs += fmt.Sprintf("%d@v%d ", od.Obj, od.Version)
		}
		r.debugf("now=%d applyData from=%d stamp=%d objs=[%s]", r.now, m.Src, m.Stamp, objs)
	}
	src := int(m.Src)
	for _, od := range diffs {
		if !r.admit(src, od.Obj, od.Version) {
			continue
		}
		_ = r.st.ApplyDiffFrom(od.Obj, od.D, od.Version, src)
		r.tr.Record(trace.OpApply, src, int64(od.Obj), od.Version, r.now, m.Stamp)
	}
}

// admit is the version gate every received update passes before it reaches
// the store: updates from different writers can arrive in any order; only
// content newer than the local replica is applied (see Write). At equal
// versions two processes raced a write to the same object; the lower
// process ID wins (the paper's data-race arbitration rule), which makes the
// outcome independent of arrival order. Refusals are traced as stale.
func (r *Runtime) admit(src int, obj store.ID, ver int64) bool {
	cur, err := r.st.Version(obj)
	if err != nil {
		return false
	}
	if ver < cur {
		r.tr.Record(trace.OpStale, src, int64(obj), ver, r.now, 0)
		return false
	}
	if ver == cur {
		// Unknown local writer (initial or snapshot state) keeps the local
		// copy, matching the old <= gate; a known lower-or-equal writer
		// keeps its win.
		if w, _ := r.st.WriterOf(obj); w < 0 || src >= w {
			r.tr.Record(trace.OpStale, src, int64(obj), ver, r.now, 1)
			return false
		}
	}
	return true
}

func (r *Runtime) serveObj(peer int, m *wire.Msg) {
	id := store.ID(m.Obj)
	state, err := r.st.Get(id)
	if err != nil {
		return
	}
	ver, _ := r.st.Version(id)
	reply := &wire.Msg{
		Kind:    wire.KindObjReply,
		Obj:     m.Obj,
		Stamp:   m.Stamp,
		Mode:    m.Mode, // echoed so AsyncGet replies self-identify
		Ints:    []int64{ver},
		Payload: state,
	}
	if err := r.send(peer, reply); err != nil {
		return
	}
	// The requester adopts exactly this state as its shadow of us: realign
	// the sender half of the delta table to it (see delta.go). The tip
	// shares the store's published state; the payload now belongs to the
	// receiver.
	if view, err := r.st.View(id); err == nil {
		r.deltaServe(peer, id, view, ver)
	}
}

// doneWon marks a DONE from a process that reached the application's goal;
// in first-to-goal (race) games it ends the game for everyone.
const doneWon uint8 = 1

// GameOver reports whether any process has announced a winning DONE.
func (r *Runtime) GameOver() bool { return r.gameOver }

// Poll drains already-delivered messages without blocking, dispatching them
// exactly as Exchange would. Race-mode drivers call it each tick so a
// winner's announcement is noticed even on ticks without a rendezvous. On
// the simulated transport arrival is deterministic; on real transports the
// observation tick may vary with scheduling.
func (r *Runtime) Poll() {
	for {
		m, ok, err := r.ep.TryRecv()
		if err != nil || !ok {
			r.flush() // dispatch may have answered (echo, object serve)
			return
		}
		r.dispatch(m, false)
	}
}

// Done announces that this process has finished, one frame per live peer
// (DESIGN.md §15): a peer with buffered modifications gets them as a final
// flush carrying the DONE marker, every other peer a bare DONE. won marks a
// process that reached the goal (ending a first-to-goal game).
func (r *Runtime) Done(won bool) error {
	if r.localDone {
		return ErrDone
	}
	r.localDone = true
	var wonAux int64
	bare, riding := uint8(0), wire.ModeDonePiggyback
	if won {
		wonAux, bare, riding = 1, doneWon, riding|wire.ModeDoneWon
	}
	r.tr.Record(trace.OpDone, -1, 0, 0, r.now, wonAux)
	// Done replaces the Exchange of the tick in progress, so the final
	// flush is stamped now+1 — the tick those writes logically belong to.
	// Peers at that tick apply them on receipt; peers behind buffer them
	// until their own clocks arrive, exactly as a regular rendezvous
	// would, independent of wall-clock message timing. The DONE is stamped
	// now either way — riding a flush, the frame's stamp less one.
	r.targets = r.appendLivePeers(r.targets[:0])
	for _, peer := range r.targets {
		var m *wire.Msg
		var diffs []xlist.ObjDiff
		if r.buf.Pending(peer) > 0 {
			diffs = r.buf.Flush(peer)
			m = r.newData(peer, diffs, r.now+1, riding, nil)
		} else {
			m = wire.GetMsg()
			m.Kind, m.Stamp, m.Mode = wire.KindDone, r.now, bare
		}
		if err := r.send(peer, m); err != nil {
			if errors.Is(err, transport.ErrPeerGone) {
				r.evictPeer(peer)
				continue
			}
			return fmt.Errorf("done to %d: %w", peer, err)
		}
		if len(diffs) > 0 {
			r.traceDataSend(peer, diffs, r.now+1)
			r.mc.AddPiggybackedDone()
		}
	}
	// The process may never send again; force the final frames out.
	r.flush()
	return nil
}

// AsyncPut sends obj's full current state to a remote process without
// waiting — the paper's async_put.
func (r *Runtime) AsyncPut(id store.ID, to int) error {
	state, err := r.st.Get(id)
	if err != nil {
		return err
	}
	ver, _ := r.st.Version(id)
	m := &wire.Msg{Kind: wire.KindObjReply, Obj: uint32(id), Ints: []int64{ver}, Payload: state}
	if err := r.send(to, m); err != nil {
		return err
	}
	r.flush()
	return nil
}

// SyncPut sends obj's state and blocks until the remote acknowledges — the
// paper's sync_put. The acknowledgment is the peer's ObjReply echo carrying
// the same stamp.
func (r *Runtime) SyncPut(id store.ID, to int) error {
	state, err := r.st.Get(id)
	if err != nil {
		return err
	}
	ver, _ := r.st.Version(id)
	stamp := r.nextCorrelation(id)
	// m is the request kept for waitReply's retransmissions; what is sent —
	// and so given away — is always a clone of it.
	m := &wire.Msg{
		Kind: wire.KindObjReq, Mode: modePut, Obj: uint32(id),
		Stamp: stamp, Ints: []int64{ver}, Payload: state,
	}
	if err := r.send(to, m.Clone()); err != nil {
		if errors.Is(err, transport.ErrPeerGone) {
			r.evictPeer(to)
			return fmt.Errorf("core: sync put obj %d to %d: %w", id, to, ErrPeerCrashed)
		}
		return err
	}
	r.flush()
	return r.waitReply(to, m, uint32(id), stamp, false)
}

// modePut marks an ObjReq as carrying a put (state push needing an ack)
// rather than a get; modeAuto marks an async get whose reply should be
// applied on arrival without a waiter.
const (
	modePut  uint8 = 3
	modeAuto uint8 = 4
	// modeRetransmit marks a SYNC resent on suspicion timeout. A receiver
	// that already consumed the original answers a marked duplicate by
	// re-echoing its own SYNC (the answer may have been lost); unmarked
	// duplicates are dropped silently.
	modeRetransmit uint8 = 5
)

// nextCorrelation builds a correlation stamp for request/reply matching.
func (r *Runtime) nextCorrelation(id store.ID) int64 {
	r.corr++
	return r.corr<<20 | int64(id)&0xfffff
}

// acceptPut applies a pushed object state and acknowledges it.
func (r *Runtime) acceptPut(peer int, m *wire.Msg) {
	ver := int64(0)
	if len(m.Ints) > 0 {
		ver = m.Ints[0]
	}
	cur, err := r.st.Version(store.ID(m.Obj))
	if err == nil && ver >= cur {
		_ = r.st.SetState(store.ID(m.Obj), m.Payload, ver)
	}
	ack := &wire.Msg{Kind: wire.KindObjReply, Obj: m.Obj, Stamp: m.Stamp}
	_ = r.send(peer, ack)
}

// AsyncGet requests obj's state from a remote process and returns without
// blocking; the reply is applied whenever it arrives — the paper's
// async_get.
func (r *Runtime) AsyncGet(id store.ID, from int) error {
	m := &wire.Msg{Kind: wire.KindObjReq, Mode: modeAuto, Obj: uint32(id), Stamp: r.now}
	if err := r.send(from, m); err != nil {
		return err
	}
	r.flush()
	return nil
}

// SyncGet requests obj's state from a remote process and blocks until it
// arrives — the paper's sync_get, used by pull-based protocols to fetch the
// up-to-date copy from an owner.
func (r *Runtime) SyncGet(id store.ID, from int) error {
	stamp := r.nextCorrelation(id)
	m := &wire.Msg{Kind: wire.KindObjReq, Obj: uint32(id), Stamp: stamp} // kept; clones are sent
	if err := r.send(from, m.Clone()); err != nil {
		if errors.Is(err, transport.ErrPeerGone) {
			r.evictPeer(from)
			return fmt.Errorf("core: sync get obj %d from %d: %w", id, from, ErrPeerCrashed)
		}
		return err
	}
	r.flush()
	return r.waitReply(from, m, uint32(id), stamp, true)
}

// waitReply blocks until an ObjReply for (obj, stamp) arrives, applying it
// if apply is set. With a rendezvous timeout configured, a silent responder
// is suspected, the request is retransmitted (a clone of req, which is kept
// and never itself sent) under bounded exponential backoff, and after
// maxRetransmits strikes the responder is evicted and an
// ErrPeerCrashed-wrapping error is returned instead of hanging forever.
// Object requests are idempotent on the serving side (version-gated state
// application, re-served reads), so retransmitted requests are safe.
func (r *Runtime) waitReply(to int, req *wire.Msg, obj uint32, stamp int64, apply bool) error {
	take := func(m *wire.Msg) bool { return m.Kind == wire.KindObjReply && m.Obj == obj && m.Stamp == stamp }
	consume := func(m *wire.Msg) error {
		if stamp > r.corrDone {
			r.corrDone = stamp
		}
		if apply {
			ver := int64(0)
			if len(m.Ints) > 0 {
				ver = m.Ints[0]
			}
			return r.st.SetState(store.ID(m.Obj), m.Payload, ver)
		}
		return nil
	}
	timeout := r.cfg.RendezvousTimeout
	wait := timeout
	retries := 0
	for {
		for i, m := range r.pendingReplies {
			if take(m) {
				r.pendingReplies = append(r.pendingReplies[:i], r.pendingReplies[i+1:]...)
				err := consume(m)
				r.recycle(m) // SetState copies the payload
				return err
			}
		}
		if timeout <= 0 {
			m, err := r.ep.Recv()
			if err != nil {
				return fmt.Errorf("await reply for obj %d: %w", obj, err)
			}
			r.dispatch(m, false)
			r.flush() // dispatch may have answered (echo, object serve)
			continue
		}
		if ps := &r.peers[to]; ps.done || ps.crashed {
			return fmt.Errorf("core: awaiting reply for obj %d from %d: %w", obj, to, ErrPeerCrashed)
		}
		m, ok, err := r.ep.RecvTimeout(wait)
		if err != nil {
			return fmt.Errorf("await reply for obj %d: %w", obj, err)
		}
		if ok {
			r.dispatch(m, false)
			r.flush() // dispatch may have answered (echo, object serve)
			continue
		}
		if retries == 0 {
			r.mc.AddSuspect()
		}
		retries++
		if retries > r.maxRetransmits() || transport.PeerGone(r.ep, to) {
			// Budget exhausted — or the transport already knows the
			// responder's socket is dead, in which case retransmitting
			// into the broken link would only delay the eviction.
			r.evictPeer(to)
			return fmt.Errorf("core: no reply for obj %d from peer %d after %d retransmits: %w (%w)", obj, to, retries-1, ErrSyncTimeout, ErrEvicted)
		}
		if err := r.send(to, req.Clone()); err != nil {
			if errors.Is(err, transport.ErrPeerGone) {
				r.evictPeer(to)
				return fmt.Errorf("core: reply source %d hung up for obj %d: %w", to, obj, ErrPeerCrashed)
			}
			return err
		}
		r.mc.AddRetransmit()
		r.flush()
		if wait < 8*timeout {
			wait *= 2
		}
	}
}
