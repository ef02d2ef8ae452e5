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
//
// The tick in stages: Exchange runs selectTargets, absorbEarly, sendFrames,
// awaitRendezvous, reschedule and streamCheckpoint (ckpt.go). sendFrame
// builds every per-peer frame of Exchange and Done, sendOutcome rules every send
// error, await (wait.go) is every blocking wait and install every update.
package core

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
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
	// after the per-peer loop, one shared message per distinct beacon (see
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
	// OnBeacon, when set, is invoked with each peer's beacon as a
	// rendezvous with that peer completes.
	OnBeacon func(peer int, beacon []int64)

	// InitialMembers, when non-nil, lists the process IDs present at the
	// start of the game (the local ID is implied). Peers not listed are
	// absent — late joiners that will enter via Join — and are excluded
	// from exchanges, writes, and completion accounting until a join
	// request from them arrives. Nil means every peer starts as a member.
	InitialMembers []int
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
	// zero means transport.DefaultMaxRetransmits.
	MaxRetransmits int
}

// DefaultJoinSlack is the admission distance, the "next epoch boundary"
// granted to a joiner: a joiner is scheduled two ticks past the serving
// process's clock, strictly in its future, leaving one full tick for the
// acknowledgment and snapshot to land.
const DefaultJoinSlack = 2

// DefaultCheckpointF is the checkpoint-stream crash budget used when
// Config.CheckpointEvery is set but Config.CheckpointF is zero.
const DefaultCheckpointF = 1

// Runtime is one process's S-DSO instance.
//
// Memory. Peers are the dense integers 0..N-1, so what the runtime keeps
// about every peer on every tick lives in one slab (peers) instead of a map
// per concern; what only some peers have — early traffic, join grants,
// vaulted checkpoints — lives in side tables that stay empty until used,
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

	// early is every message held until the local clock reaches its
	// stamp, in arrival order; absorbEarly sorts the due ones into
	// absorbing.
	early     []earlyItem
	absorbing []earlyItem

	// Membership state (epoch-numbered views; see View).
	epoch   int64
	joining *joinState    // non-nil while Join is collecting admissions
	grants  map[int]grant // admissions served, made at the first join served

	// vaults holds each origin's freshest replicated checkpoint, relayed
	// on its eviction; it is made only when CheckpointEvery > 0.
	vaults map[int]vaultEntry

	// deltaPool is the storage under every peer's delta tables.
	deltaPool deltaStorage

	// Exchange scratch, reused every tick.
	opts        ExchangeOpts // the call's arguments, which a late frame is built from too
	targets     []int        // this tick's rendezvous set
	deferred    []int        // withheld peers whose bare SYNC fans out grouped
	fanout      []syncGroup
	outstanding int // targets awaitRendezvous still waits on

	// run is the frame the latest peers of this call were owed, one
	// shared message (DESIGN.md §15): the runtime keeps a reference of its
	// own until the run ends, to compare the next peer's frame with.
	run *wire.Msg

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

// peerState is what the runtime keeps about one remote process on every
// tick. State only some peers ever have — early traffic (Runtime.early),
// join grants (Runtime.grants), vaulted checkpoints (Runtime.vaults) —
// belongs in a side table, not here: n runtimes of n peers each hold n²
// of these.
type peerState struct {
	status status // where the peer stands in the game; move is its one writer
	// heldSyncs counts the peer's SYNCs in Runtime.early: only a peer with
	// one held can send a duplicate of it.
	heldSyncs uint32

	// Failure detection (active when RendezvousTimeout > 0).
	syncSeen int64   // highest consumed SYNC stamp
	lastSync syncRec // last SYNC sent to the peer (echo and retransmit source)
	prevSync syncRec // the one before it (echo source for a peer a rendezvous behind)

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

// syncRec is what the runtime keeps of a SYNC it sent — the values, never
// the message, which Send gave away. The echo and retransmit paths build a
// fresh message from it; the beacon is shared with every message that
// carried it and is immutable. A zero stamp means none was sent.
type syncRec struct {
	stamp  int64
	beacon []int64
}

// earlyItem is one piece of a peer's traffic held until the local clock
// reaches its stamp: a DATA frame, unapplied (m), or a SYNC's beacon (m is
// nil).
type earlyItem struct {
	peer   int
	stamp  int64
	m      *wire.Msg
	beacon []int64
}

// grant is the admission tick served to a joiner and the incarnation it
// was served to.
type grant struct{ tick, inc int64 }

// sent records the SYNC (bare or riding a DATA frame) just sent to the peer.
// Two are kept: the local process passed rendezvous k only on the peer's
// SYNC(k), so the peer can be missing ours for k or the one after, no older.
func (ps *peerState) sent(stamp int64, beacon []int64) {
	ps.prevSync, ps.lastSync = ps.lastSync, syncRec{stamp: stamp, beacon: beacon}
}

// status is where a peer stands in this process's game (DESIGN.md §8). New
// starts a peer live or absent; from then on move is the one writer.
type status uint8

// The statuses, in the order the predicates rely on.
const (
	live     status = iota // in the game
	departed               // live, marked by Departed: sent nothing until its SYNC shows it waits
	absent                 // a late joiner not yet admitted
	done                   // announced completion
	crashed                // evicted as crashed
)

// edge is one event of a peer's lifecycle.
type edge uint8

const (
	onReadmit edge = iota // a join handshake with the peer (serveJoin, handleJoinAck)
	onMark                // Departed
	onSettle              // a marked peer's SYNC is in hand, or sendLate sends it its frame
	onDone                // its DONE arrived
	onEvict               // declared crashed
)

// lifecycle[e][s] is the status edge e takes a peer in status s to, in the
// order live, departed, absent, done, crashed; an edge a status has not got
// leaves it unchanged. Done is final.
var lifecycle = [...][5]status{
	onReadmit: {live, departed, live, done, live},
	onMark:    {departed, departed, absent, done, crashed},
	onSettle:  {live, live, absent, done, crashed},
	onDone:    {done, done, absent, done, crashed},
	onEvict:   {crashed, crashed, crashed, done, crashed},
}

// The predicates every read of a status goes through.
func (ps *peerState) is(s status) bool { return ps.status == s }
func (ps *peerState) gone() bool       { return ps.status >= absent } // not in the game: absent, done or crashed
func (ps *peerState) ended() bool      { return ps.status >= done }   // its game is over: done or crashed
func (ps *peerState) marked() bool     { return ps.status == departed }
func (ps *peerState) barred() bool     { return ps.status == absent || ps.status == crashed } // its traffic but join's is dropped

// move takes peer along edge e and reports whether its status changed; it is
// the one writer of statuses after New and of the epoch, which readmission
// and leaving the game (a DONE, an eviction) advance. Leaving ends the
// peer's schedule, slot and wait at once. stamp is a DONE's, for the trace.
func (r *Runtime) move(peer int, e edge, stamp int64) bool {
	ps := &r.peers[peer]
	to := lifecycle[e][ps.status]
	if to == ps.status {
		return false
	}
	ps.status = to
	switch e {
	case onReadmit:
		r.epoch++
	case onDone, onEvict:
		r.epoch++
		r.settle(ps)
		op := trace.OpEvict
		if e == onDone {
			op = trace.OpPeerDone
		}
		r.tr.Record(op, peer, 0, 0, r.now, stamp)
		r.xl.Remove(peer)
		r.buf.Drop(peer)
		// Early SYNCs have no rendezvous left to serve. Early DATA survives,
		// to be absorbed at its stamped tick: a DONE's final flush stamped
		// one tick ahead, a fail-stop process's pre-crash output.
		r.dropEarly(peer, false)
		// Nothing is flushed to the peer again: its sender delta half goes back
		// to the pool. The receiver half stays for a final flush's delta.
		ps.send.reset(&r.deltaPool)
	}
	return true
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
	r := &Runtime{
		ep:      ep,
		st:      store.New(),
		mc:      mc,
		tr:      cfg.Trace,
		cfg:     cfg,
		xl:      xlist.NewList(),
		buf:     xlist.NewSlottedBuffer(ep.ID(), ep.N(), cfg.MergeDiffs),
		peers:   make([]peerState, ep.N()),
		targets: make([]int, 0, ep.N()),
	}
	r.xl.Reserve(ep.N())
	if cfg.CheckpointEvery > 0 {
		r.vaults = make(map[int]vaultEntry)
		if r.cfg.CheckpointF <= 0 {
			r.cfg.CheckpointF = DefaultCheckpointF
		}
	}
	for peer := range r.peers {
		switch {
		case peer == ep.ID():
		case cfg.InitialMembers != nil && !slices.Contains(cfg.InitialMembers, peer):
			r.peers[peer] = peerState{status: absent}
			r.buf.Drop(peer)
		}
	}
	r.Start(EveryTick)
	return r, nil
}

// Start treats the shared start as a rendezvous completed at tick 0: every
// live peer's first rendezvous becomes sf(peer, 0, nil), the s-function
// over the start, which carries no beacon. It is the one writer of the
// initial schedule. New starts with EveryTick, every peer at tick 1; a
// protocol whose s-function is symmetric over a start both sides know, so
// that both pick the same tick, calls Start again before its first
// Exchange. It traces only the ticks it changes, so a second Start that
// keeps tick 1 leaves the trace as New wrote it. Once the clock has moved
// (an Exchange, a Join) it does nothing.
func (r *Runtime) Start(sf SFunc) {
	if r.now != 0 || r.localDone {
		return
	}
	for peer := range r.peers {
		if peer == r.ep.ID() || r.peers[peer].gone() {
			continue
		}
		first := max(sf(peer, 0, nil), 1)
		if t, ok := r.xl.Time(peer); ok && t == first {
			continue
		}
		r.xl.Set(peer, first)
		r.tr.Record(trace.OpSched, peer, 0, 0, 0, first)
	}
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

// PeerDone reports whether peer announced completion; an evicted peer, or
// one not yet joined, has not.
func (r *Runtime) PeerDone(peer int) bool { return r.peers[peer].is(done) }

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

// View returns the current membership view.
func (r *Runtime) View() View {
	members := r.appendLivePeers(make([]int, 0, len(r.peers)))
	i, _ := slices.BinarySearch(members, r.ep.ID())
	return View{Epoch: r.epoch, Members: slices.Insert(members, i, r.ep.ID())}
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

// LivePeers returns, ascending, the peers in the game: every peer but the
// local process that has joined, not announced done and not been evicted as
// crashed — those PeerGone reports false for.
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

// sendTo sends m to peer under the one send-error rule, sendOutcome.
func (r *Runtime) sendTo(peer int, m *wire.Msg, op string) (bool, error) {
	return r.sendOutcome(peer, r.send(peer, m), op)
}

// sendOutcome is the one send-error rule, for err from a send to peer:
// transport.ErrPeerGone (a TCP peer hung up without a DONE) is a crash
// observation, so the peer is evicted and the caller skips it (false, nil);
// any other error comes back wrapped as "op peer: err".
func (r *Runtime) sendOutcome(peer int, err error, op string) (bool, error) {
	switch {
	case err == nil:
		return true, nil
	case errors.Is(err, transport.ErrPeerGone):
		r.evictPeer(peer)
		return false, nil
	}
	return false, fmt.Errorf("%s %d: %w", op, peer, err)
}

// newSync builds a SYNC in a pooled struct; beacon is shared, not copied.
func newSync(stamp int64, beacon []int64, mode uint8) *wire.Msg {
	m := wire.GetMsg()
	m.Kind, m.Stamp, m.Mode, m.Ints = wire.KindSync, stamp, mode, beacon
	return m
}

// sendFrame sends peer the one frame a rendezvous or Done owes it (DESIGN.md
// §15), under the one send-error rule, and reports whether it went out.
// Without diffs it is f, the call's bare marker (a SYNC or a DONE); with
// diffs flushed from peer's slot, a DATA frame stamped stamp that carries
// them, marker riding on it. The message that carries it is runFrame's.
func (r *Runtime) sendFrame(peer int, f wire.Msg, diffs []xlist.ObjDiff, stamp int64, marker uint8, op string) (bool, error) {
	if len(diffs) > 0 {
		f.Kind, f.Stamp = wire.KindData, stamp
		f.Payload, f.Mode = r.encodeDataPayload(peer, diffs, stamp)
		f.Mode |= marker
	}
	sent, err := r.sendTo(peer, r.runFrame(f), op)
	if sent && len(diffs) > 0 && r.tr != nil {
		for _, od := range diffs {
			r.tr.Record(trace.OpSendObj, peer, int64(od.Obj), od.Version, stamp, 0)
		}
		r.tr.Record(trace.OpDataSend, peer, 0, 0, stamp, int64(len(diffs)))
	}
	return sent, err
}

// runFrame returns the message that carries frame f to the next peer of a
// call. Consecutive peers owed the same frame — kind, mode, stamp, Ints and
// payload bytes alike — get one shared message (wire.Share), so a broadcast
// takes one pooled struct per distinct frame rather than one per peer:
// each Send gives a reference away and each receiver's recycle returns
// one. A frame unlike the run's ends the run (endRun) and starts another
// in a fresh pooled copy of f, routed by the runtime; a duplicate takes no
// struct. f's Payload is only read: it may be the encoding scratch.
func (r *Runtime) runFrame(f wire.Msg) *wire.Msg {
	if m := r.run; m != nil && m.Kind == f.Kind && m.Mode == f.Mode && m.Stamp == f.Stamp &&
		slices.Equal(m.Ints, f.Ints) && bytes.Equal(m.Payload, f.Payload) {
		wire.Share(m, 2) // the runtime's reference and this peer's
		return m
	}
	f.Src, f.Dst = int32(r.ep.ID()), -1
	m := wire.GetMsgOf(f) // before endRun: a new run never reuses the last one's struct
	wire.Share(m, 2)
	r.endRun()
	r.run = m
	return m
}

// endRun returns the runtime's reference to the run's message: the last
// receiver to recycle it puts it back in the pool.
func (r *Runtime) endRun() {
	if r.run != nil {
		wire.PutMsg(r.run)
		r.run = nil
	}
}

// Exchange is the paper's exchange() call (Figure 4): advance the logical
// clock, ship buffered and current modifications to the processes due now,
// and — in resync mode — block until each of them has exchanged back, then
// use the s-function to schedule the next rendezvous with each, in the
// stages the package comment lists (DESIGN.md §3.5).
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
	r.mc.Add(metrics.Ticks, 1)
	r.tr.Record(trace.OpTick, -1, 0, 0, r.now, 0)

	r.opts = opts
	r.selectTargets(opts.How)
	r.absorbEarly()
	if err := r.sendFrames(); err != nil {
		return err
	}
	if opts.Resync {
		if err := r.awaitRendezvous(); err != nil {
			return err
		}
		if err := r.reschedule(opts.SFunc); err != nil {
			return err
		}
	}
	if r.cfg.CheckpointEvery > 0 && r.now%r.cfg.CheckpointEvery == 0 {
		r.streamCheckpoint()
	}
	r.mc.AddTime(metrics.CatExchange, r.ep.Now()-startWall)
	return nil
}

// selectTargets is the due-set stage: this tick's rendezvous set is every
// live peer under Broadcast, else the live peers the exchange-list has due.
func (r *Runtime) selectTargets(how SendMode) {
	targets := r.targets[:0]
	if how == Broadcast {
		targets = r.appendLivePeers(targets)
	} else {
		for _, e := range r.xl.Due(r.now) {
			if !r.peers[e.Proc].ended() {
				targets = append(targets, e.Proc)
			}
		}
	}
	r.targets = targets
	if r.cfg.MaxBatchTicks > 1 && how == Multicast && len(targets) == 0 {
		// A tick folded into the next rendezvous's frame by the batching
		// s-function: its writes stay buffered (and merge).
		r.mc.Add(metrics.TicksBatched, 1)
	}
}

// sendFrames is the send stage: one frame per target (exchangeFrame), none
// to a target marked departed whose SYNC is not in hand, then the grouped
// fanout and the barrier.
//
// Every message comes from the wire pool and is given away by send: the
// in-memory and simulated transports hand the receiver this very struct,
// which the receiver recycles once consumed, so structs and payloads
// circulate instead of being allocated per rendezvous, and nothing here
// keeps a sent message past the call (lastSync is a value; the run's
// reference ends with it). Peers in a row owed the same frame share one
// struct (runFrame). Beacons are shared between messages, read-only.
func (r *Runtime) sendFrames() error {
	defer r.endRun()
	deferred := r.deferred[:0] // filtered-out peers whose bare SYNC fans out grouped
	for _, peer := range r.targets {
		ps := &r.peers[peer]
		if ps.is(crashed) || ps.marked() && ps.syncTick != r.now {
			continue // a marked target is owed: a DONE settles the wait, a SYNC gets it late
		}
		r.move(peer, onSettle, 0) // a marked target's SYNC in hand proves it alive
		grouped, err := r.exchangeFrame(peer, &r.opts)
		if err != nil {
			return err
		}
		if grouped {
			if cap(deferred) == 0 {
				deferred = make([]int, 0, len(r.peers))
			}
			deferred = append(deferred, peer)
		}
	}
	r.deferred = deferred
	if err := r.sendSyncFanout(deferred, r.opts); err != nil {
		return err
	}
	// Barrier: release whatever the transport coalesced before blocking on
	// (or returning control ahead of) the peers' answers.
	r.flush()
	return nil
}

// exchangeFrame sends peer its frame of this tick's exchange: the gate,
// then the diffs flushed from its slot with the SYNC riding on them, or the
// SYNC bare. Broadcast mode "forces the modifications ... as well as all
// buffered modifications to be immediately flushed to all remote processes"
// (paper §3.1): the spatial filter does not apply. It reports grouped,
// having sent nothing, for a withheld peer whose bare SYNC fans out after
// the loop (GroupWithheldSyncs): the withheld peers are the common case at
// scale and their bare SYNCs usually share a beacon (same tanks, same
// buffered box), so sendSyncFanout sends one message per distinct beacon.
func (r *Runtime) exchangeFrame(peer int, opts *ExchangeOpts) (grouped bool, err error) {
	sendData := opts.How == Broadcast || opts.SendData == nil || opts.SendData(peer)
	if r.tr != nil && !sendData {
		for _, obj := range r.buf.Objects(peer) {
			r.tr.Record(trace.OpWithheld, peer, int64(obj), 0, r.now, 0)
		}
	}
	if opts.GroupWithheldSyncs && !sendData {
		return true, nil
	}
	var diffs []xlist.ObjDiff
	if sendData && r.buf.Pending(peer) > 0 {
		diffs = r.buf.Flush(peer)
	}
	var beacon []int64 // evaluated after the flush: describes what stays buffered
	if opts.Beacon != nil {
		beacon = opts.Beacon(peer)
	}
	bare := wire.Msg{Kind: wire.KindSync, Stamp: r.now, Ints: beacon}
	sent, err := r.sendFrame(peer, bare, diffs, r.now, wire.ModeSyncPiggyback, "exchange with")
	if !sent {
		return false, err
	}
	if len(diffs) > 0 {
		r.mc.Add(metrics.PiggybackedSyncs, 1)
	}
	r.peers[peer].sent(r.now, beacon) // retransmits and echoes are always bare SYNCs
	return false, nil
}

// reschedule hands the s-function each live partner's beacon of this tick
// and puts the partner's next exchange into the exchange-list.
func (r *Runtime) reschedule(sfunc SFunc) error {
	for _, peer := range r.targets {
		ps := &r.peers[peer]
		if ps.ended() {
			continue
		}
		var pb []int64
		if ps.syncTick == r.now {
			pb = ps.beacon
		}
		if r.cfg.OnBeacon != nil {
			r.cfg.OnBeacon(peer, pb)
		}
		next := sfunc(peer, r.now, pb)
		if next <= r.now {
			return fmt.Errorf("core: s-function scheduled peer %d at %d, not after now=%d", peer, next, r.now)
		}
		r.tr.Record(trace.OpRendezvous, peer, 0, 0, r.now, next)
		r.xl.Set(peer, next)
	}
	return nil
}

// absorbEarly moves the held messages whose stamp is now current into
// effect, ordered by peer and, within a peer, by arrival: every DATA
// payload is applied, then each peer's newest SYNC beacon is noted as this
// tick's.
func (r *Runtime) absorbEarly() {
	keep, due := r.early[:0], r.absorbing[:0]
	for _, it := range r.early {
		if it.stamp > r.now {
			keep = append(keep, it)
		} else {
			due = append(due, it)
		}
	}
	clear(r.early[len(keep):])
	r.early = keep
	slices.SortStableFunc(due, func(a, b earlyItem) int { return cmp.Compare(a.peer, b.peer) })
	for _, it := range due {
		if it.m != nil {
			r.applyData(it.m)
			r.recycle(it.m)
		}
	}
	for i := 0; i < len(due); {
		peer, best := due[i].peer, earlyItem{stamp: -1}
		for ; i < len(due) && due[i].peer == peer; i++ {
			if due[i].m != nil {
				continue
			}
			r.peers[peer].heldSyncs--
			if due[i].stamp > best.stamp {
				best = due[i]
			}
		}
		if best.stamp >= 0 {
			r.tr.Record(trace.OpSyncRecv, peer, 0, 0, r.now, best.stamp)
			r.takeSync(peer, best.beacon, best.stamp)
		}
	}
	clear(due)
	r.absorbing = due
}

// dropEarly removes peer's held SYNCs from the early queue and, when data
// is set, its held DATA too.
func (r *Runtime) dropEarly(peer int, data bool) {
	keep := r.early[:0]
	for _, it := range r.early {
		if it.peer == peer && (it.m == nil || data) {
			if it.m != nil {
				r.recycle(it.m)
			}
			continue
		}
		keep = append(keep, it)
	}
	clear(r.early[len(keep):])
	r.early = keep
	r.peers[peer].heldSyncs = 0
}

// takeSync makes peer's SYNC stamped stamp this tick's, whether it completes
// a wait or was held early: its beacon goes to the s-function and its stamp
// feeds the ack table.
func (r *Runtime) takeSync(peer int, beacon []int64, stamp int64) {
	ps := &r.peers[peer]
	ps.beacon, ps.syncTick = beacon, r.now
	if stamp > ps.syncSeen {
		ps.syncSeen = stamp
		r.deltaAck(peer, stamp)
	}
}

// awaitRendezvous is the await stage: the one wait, until every target has
// answered with a SYNC (or announced DONE). A silent target is resent the
// SYNC this tick sent it; the rendezvous completes among the survivors.
func (r *Runtime) awaitRendezvous() error {
	r.outstanding = 0
	for _, peer := range r.targets {
		ps := &r.peers[peer]
		if ps.ended() || ps.syncTick == r.now {
			continue
		}
		ps.waitTick = r.now
		r.outstanding++
	}
	_, err := r.await(&waiter{
		peers: r.targets, timeout: r.cfg.RendezvousTimeout, rendezvous: true, suspect: true, goneFirst: true,
		pending: func(peer int) bool { return r.peers[peer].waitTick == r.now },
		resend: func(peer int) (bool, error) {
			if r.peers[peer].marked() {
				return false, r.sendLate(peer) // not a retransmission: the first frame
			}
			ls := r.peers[peer].lastSync
			if ls.stamp != r.now {
				return false, nil // no SYNC went to the peer this tick
			}
			return r.sendTo(peer, newSync(ls.stamp, ls.beacon, modeRetransmit), "retransmit sync to")
		},
	})
	if err != nil {
		return fmt.Errorf("exchange at tick %d: %w", r.now, err)
	}
	return nil
}

// flush releases whatever frames the transport has coalesced since the
// last barrier; a no-op on transports without deferred flushing.
func (r *Runtime) flush() { _ = transport.Flush(r.ep) }

// recycle returns a fully consumed incoming message to the transport's
// free-list, from which the next outgoing message is taken (newSync,
// runFrame): a delivered message is the receiver's until it recycles it —
// a shared one goes back to the pool at its last receiver's — so this
// closes the cycle. Nothing may reference the struct or its Payload afterwards;
// beacons retained past this point (a held SYNC's, peerState.beacon) are
// safe because transports detach Ints themselves (see transport.Recycler).
func (r *Runtime) recycle(m *wire.Msg) { transport.Recycle(r.ep, m) }

// dispatch routes one incoming message. rendezvous is set by
// awaitRendezvous: SYNC content stamped with the current tick then
// completes the sender's rendezvous instead of being held.
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
	if ps.barred() {
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
			r.early = append(r.early, earlyItem{peer: peer, stamp: m.Stamp, m: m})
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
			if ver, adopted := r.adopt(m); adopted {
				r.tr.Record(trace.OpAdopt, peer, int64(m.Obj), ver, r.now, m.Stamp)
			}
			// Whatever the store decided, the serving peer now assumes we
			// hold exactly this state: realign the shadow (see delta.go).
			r.deltaAdoptReply(peer, store.ID(m.Obj), m.Payload, replyVersion(m))
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
					r.mc.Add(metrics.Retransmits, 1)
				}
			}
		}
		return
	}
	if stamp > r.now || !rendezvous {
		// Ahead of our clock, or nobody is awaiting a rendezvous
		// right now: hold the SYNC until the matching Exchange.
		r.tr.Record(trace.OpSyncEarly, peer, 0, 0, r.now, stamp)
		if ps.heldSyncs > 0 {
			for i := range r.early {
				if it := &r.early[i]; it.peer == peer && it.m == nil && it.stamp == stamp {
					it.beacon = beacon
					return
				}
			}
		}
		ps.heldSyncs++
		r.early = append(r.early, earlyItem{peer: peer, stamp: stamp, beacon: beacon})
		return
	}
	r.tr.Record(trace.OpSyncRecv, peer, 0, 0, r.now, stamp)
	if ps.waitTick == r.now { // the rendezvous awaited it
		if ps.marked() {
			// The mark was wrong. A send error other than the peer's
			// hang-up (which evicts it) means a closed endpoint, which the
			// wait's next receive reports.
			_ = r.sendLate(peer)
		}
		r.takeSync(peer, beacon, stamp)
		r.settle(ps)
	}
}

// sendLate sends peer, marked departed, the frame the send stage skipped,
// carrying the writes buffered for it, inline whatever the grouping: as
// soon as the peer's SYNC shows the mark wrong, or at the wait's first
// silence, in case the peer wrongly marked this process too.
func (r *Runtime) sendLate(peer int) error {
	r.move(peer, onSettle, 0)
	opts := r.opts
	opts.GroupWithheldSyncs = false
	_, err := r.exchangeFrame(peer, &opts)
	r.endRun()
	return err
}

// handleDone marks peer finished as of its DONE stamp. Its final data (if
// any) is the data half of the same frame, or an earlier DATA message (FIFO).
func (r *Runtime) handleDone(peer int, won bool, stamp int64) {
	if won {
		r.gameOver = true
	}
	r.move(peer, onDone, stamp)
}

// applyData decodes and applies a DATA message's diff batch, in the payload
// format its mode bit names. Plain diffs are decoded into scratch whose run
// data aliases m.Payload; the store copies what it keeps.
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
	for _, od := range diffs {
		r.install(int(m.Src), od.Obj, od.Version, od.D, nil, m.Stamp)
	}
}

// install is the one path a received record takes into the store, in either
// payload format: admit, store, trace. An owned full state is adopted
// without a copy; without one, d is applied to the replica.
func (r *Runtime) install(src int, obj store.ID, ver int64, d diff.Diff, state []byte, stamp int64) {
	if !r.admit(src, obj, ver) {
		return
	}
	if state != nil {
		_ = r.st.AdoptStateFrom(obj, state, ver, src)
	} else {
		_ = r.st.ApplyDiffFrom(obj, d, ver, src)
	}
	r.tr.Record(trace.OpApply, src, int64(obj), ver, r.now, stamp)
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

// doneWon marks a DONE from a process that reached the application's goal;
// in first-to-goal (race) games it ends the game for everyone.
const doneWon uint8 = 1

// modeRetransmit marks a SYNC resent on suspicion timeout. A receiver that
// already consumed the original answers a marked duplicate by re-echoing its
// own SYNC (the answer may have been lost); unmarked duplicates are dropped
// silently.
const modeRetransmit uint8 = 5

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

// NextExchange returns the tick of the next rendezvous scheduled with peer;
// false means none is (the peer is gone, absent or the local process).
func (r *Runtime) NextExchange(peer int) (int64, bool) { return r.xl.Time(peer) }

// Departed marks live peer departed: the application knows the peer will
// not wait on this process again — its replica shows the peer's game ended,
// or their next rendezvous lies past the game's last tick — so no Exchange
// or Done sends it anything until its DONE arrives, and its DONE settles a
// wait on it. Should a resync Exchange's target answer with a SYNC instead,
// the skipped frame goes to it at once (sendLate), so a wrong mark costs
// one late frame; one that Done honours costs what a lost DONE does
// (DESIGN.md §15). The trace event carries the peer's next rendezvous tick.
func (r *Runtime) Departed(peer int) {
	if !r.peers[peer].gone() {
		r.move(peer, onMark, 0)
		next, _ := r.xl.Time(peer)
		r.tr.Record(trace.OpDeparted, peer, 0, 0, r.now+1, next)
	}
}

// Done announces that this process has finished, one frame per live peer
// not marked departed (DESIGN.md §15): a peer with buffered modifications
// gets them as a final flush carrying the DONE marker, every other peer a
// bare DONE. A marked peer — one whose game ended, or one never met again —
// is sent nothing: nobody waits on a finished process. won marks a process
// that reached the goal (ending a first-to-goal game).
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
	defer r.endRun()
	for _, peer := range r.targets {
		if r.peers[peer].marked() {
			continue
		}
		var diffs []xlist.ObjDiff
		if r.buf.Pending(peer) > 0 {
			diffs = r.buf.Flush(peer)
		}
		done := wire.Msg{Kind: wire.KindDone, Stamp: r.now, Mode: bare}
		sent, err := r.sendFrame(peer, done, diffs, r.now+1, riding, "done to")
		if err != nil {
			return err
		}
		if sent && len(diffs) > 0 {
			r.mc.Add(metrics.PiggybackedDones, 1)
		}
	}
	// The process may never send again; force the final frames out.
	r.flush()
	return nil
}
