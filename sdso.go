// Package sdso is S-DSO: a distributed-shared-object runtime that lets
// applications exploit their own temporal and spatial semantics when
// keeping replicated objects consistent. It reproduces the system described
// in "Exploiting Temporal and Spatial Constraints on Distributed Shared
// Objects" (West, Schwan, Tacic, Ahamad; Georgia Tech, ICDCS 1997).
//
// # Model
//
// Every process holds a replica of every shared object (registered once,
// up front, with Share — the paper's share() call). Processes modify their
// replicas locally with Write and reconcile through Exchange, the heart of
// the system: each call advances a logical clock one tick, ships buffered
// modifications to the peers scheduled for a rendezvous now, and — in
// resync mode — blocks until those peers have exchanged back.
//
// When and with whom to exchange is decided by an application-supplied
// semantic function (SFunc): after each rendezvous the runtime asks it for
// the next exchange tick for that peer. A second application hook,
// SendData, decides which rendezvous actually carry object data (spatial
// filtering); withheld updates stay buffered — merged per object — in a
// per-peer slotted buffer until a later rendezvous flushes them. Small
// application "beacons" ride on every rendezvous so both sides can feed
// their semantic functions identical inputs, which keeps the pairwise
// schedule agreed and the system deadlock-free.
//
// The classic protocols from the paper are one-liners on this API:
// broadcast synchrony (BSYNC) is Exchange with the EveryTick schedule;
// the multicast lookahead protocols (MSYNC/MSYNC2) use distance-based
// schedules and spatial filters. Lock-based protocols (entry consistency,
// lazy release consistency) can be built from the put/get primitives.
//
// # Transports
//
// Runtimes communicate through an Endpoint. LocalGroup wires an in-process
// group (tests, simulations); ConnectTCP builds a full TCP mesh across real
// machines.
package sdso

import (
	"errors"
	"fmt"
	"time"

	"sdso/internal/core"
	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/transport"
)

// ObjectID names a shared object.
type ObjectID = store.ID

// SendMode selects how an exchange distributes updates, mirroring the
// paper's send_t argument.
type SendMode int

// Send modes.
const (
	// Multicast exchanges only with the peers due in the exchange-list.
	Multicast SendMode = SendMode(core.Multicast)
	// Broadcast flushes this exchange and all buffered modifications to
	// every live peer immediately.
	Broadcast SendMode = SendMode(core.Broadcast)
)

// SFunc is a semantic function: given a peer, the current logical tick, and
// the peer's beacon from the just-completed rendezvous, it returns the next
// tick at which the local process must exchange with that peer. It must
// return a tick strictly in the future and be symmetric — both partners,
// evaluating their own SFunc with the other's beacon, must produce the same
// tick (this is what makes the pairwise schedule deadlock-free).
type SFunc = core.SFunc

// EveryTick schedules a rendezvous with every peer at every tick — the
// BSYNC schedule.
func EveryTick(peer int, now int64, beacon []int64) int64 {
	return core.EveryTick(peer, now, beacon)
}

// ExchangeOptions parameterizes one Exchange call (the paper's resync_flag,
// how, s_func and attribute arguments).
type ExchangeOptions struct {
	// Resync selects push-pull mode: block until every peer exchanged
	// with this tick has exchanged back. Push-only otherwise.
	Resync bool
	// How selects Multicast (default) or Broadcast.
	How SendMode
	// SFunc reschedules each rendezvous partner; required with Resync.
	SFunc SFunc
	// SendData, when set, filters which peers receive object data this
	// rendezvous; withheld updates stay buffered for later.
	SendData func(peer int) bool
	// Beacon, when set, supplies the per-peer coordination payload
	// carried on this exchange's SYNC messages.
	Beacon func(peer int) []int64
}

// Option configures a Runtime.
type Option func(*options)

type options struct {
	mergeDiffs bool
	onBeacon   func(peer int, beacon []int64)
}

// WithDiffMerging toggles merging of successive updates to one object in
// the per-peer buffers (on by default; the paper's §3.1 optimization).
func WithDiffMerging(on bool) Option {
	return func(o *options) { o.mergeDiffs = on }
}

// WithBeaconObserver installs a callback invoked with each peer's beacon as
// rendezvous complete.
func WithBeaconObserver(fn func(peer int, beacon []int64)) Option {
	return func(o *options) { o.onBeacon = fn }
}

// Runtime is one process's S-DSO instance.
type Runtime struct {
	rt *core.Runtime
	ep transport.Endpoint
	mc *metrics.Collector
}

// New builds a runtime over an endpoint obtained from LocalGroup or
// ConnectTCP.
func New(ep Endpoint, opts ...Option) (*Runtime, error) {
	if ep.inner == nil {
		return nil, errors.New("sdso: endpoint is not connected")
	}
	o := options{mergeDiffs: true}
	for _, opt := range opts {
		opt(&o)
	}
	mc := metrics.NewCollector()
	rt, err := core.New(core.Config{
		Endpoint:   ep.inner,
		Metrics:    mc,
		MergeDiffs: o.mergeDiffs,
		OnBeacon:   o.onBeacon,
	})
	if err != nil {
		return nil, err
	}
	return &Runtime{rt: rt, ep: ep.inner, mc: mc}, nil
}

// ID returns this process's identity within the group.
func (r *Runtime) ID() int { return r.rt.ID() }

// N returns the group size.
func (r *Runtime) N() int { return r.rt.N() }

// Now returns the logical clock (ticks advanced by Exchange).
func (r *Runtime) Now() int64 { return r.rt.Now() }

// Share registers a shared object with its initial state — the paper's
// share() call, used once per object at initialization.
func (r *Runtime) Share(id ObjectID, initial []byte) error {
	return r.rt.Share(id, initial)
}

// Write modifies the local replica of a shared object; the update is
// buffered for every peer and distributed by later Exchanges.
func (r *Runtime) Write(id ObjectID, data []byte) error {
	return r.rt.Write(id, data)
}

// Read returns a copy of the local replica of a shared object.
func (r *Runtime) Read(id ObjectID) ([]byte, error) {
	return r.rt.Store().Get(id)
}

// Version returns the object's replica version (increments per write).
func (r *Runtime) Version(id ObjectID) (int64, error) {
	return r.rt.Store().Version(id)
}

// Exchange is the paper's exchange() call: advance the logical clock, ship
// updates to the peers due now, and (with Resync) rendezvous with them and
// reschedule via the semantic function.
func (r *Runtime) Exchange(opts ExchangeOptions) error {
	return r.rt.Exchange(core.ExchangeOpts{
		Resync:   opts.Resync,
		How:      core.SendMode(opts.How),
		SFunc:    opts.SFunc,
		SendData: opts.SendData,
		Beacon:   opts.Beacon,
	})
}

// Done announces that this process has finished: its remaining buffered
// updates are flushed to every peer and a completion notice is broadcast.
// won marks a process that reached the application's goal, ending
// first-to-goal games for the whole group.
func (r *Runtime) Done(won bool) error { return r.rt.Done(won) }

// GameOver reports whether any process announced a winning Done.
func (r *Runtime) GameOver() bool { return r.rt.GameOver() }

// Poll drains already-delivered messages without blocking.
func (r *Runtime) Poll() { r.rt.Poll() }

// PeerDone reports whether a peer announced completion. An evicted peer —
// a TCP peer that hung up without announcing it — has not.
func (r *Runtime) PeerDone(peer int) bool { return r.rt.PeerDone(peer) }

// LivePeers lists, ascending, the peers still in the game: every other peer
// that has neither announced completion nor been evicted.
func (r *Runtime) LivePeers() []int { return r.rt.LivePeers() }

// PendingObjects lists objects with updates buffered for a peer but not yet
// sent — semantic functions use it to advertise dirty regions.
func (r *Runtime) PendingObjects(peer int) []ObjectID { return r.rt.PendingObjects(peer) }

// AsyncPut pushes an object's state to a peer without waiting (the paper's
// async_put).
func (r *Runtime) AsyncPut(id ObjectID, to int) error { return r.rt.AsyncPut(id, to) }

// SyncPut pushes an object's state to a peer and blocks for the
// acknowledgment (the paper's sync_put).
func (r *Runtime) SyncPut(id ObjectID, to int) error { return r.rt.SyncPut(id, to) }

// AsyncGet requests an object from a peer; the reply is applied on arrival
// (the paper's async_get).
func (r *Runtime) AsyncGet(id ObjectID, from int) error { return r.rt.AsyncGet(id, from) }

// SyncGet requests an object from a peer and blocks until the fresh copy is
// applied (the paper's sync_get, the pull of pull-based protocols).
func (r *Runtime) SyncGet(id ObjectID, from int) error { return r.rt.SyncGet(id, from) }

// Stats summarizes a runtime's communication so far.
type Stats struct {
	MessagesSent int
	DataMessages int
	BytesSent    int
	LogicalTicks int
}

// Stats returns a snapshot of the runtime's counters.
func (r *Runtime) Stats() Stats {
	s := r.mc.Snapshot()
	return Stats{
		MessagesSent: s.TotalMsgs(),
		DataMessages: s.DataMsgs(),
		BytesSent:    s.BytesSent,
		LogicalTicks: s.Ticks,
	}
}

// Endpoint connects a runtime to its peer group. Obtain one from LocalGroup
// or ConnectTCP.
type Endpoint struct {
	inner transport.Endpoint
}

// Close shuts the endpoint down.
func (e Endpoint) Close() error {
	if e.inner == nil {
		return nil
	}
	return e.inner.Close()
}

// LocalGroup creates n connected in-process endpoints (useful for tests,
// simulations, and single-machine demos).
func LocalGroup(n int) []Endpoint {
	net := transport.NewMemNetwork(n)
	out := make([]Endpoint, n)
	for i := range out {
		out[i] = Endpoint{inner: net.Endpoint(i)}
	}
	return out
}

// ConnectTCP joins a TCP mesh: addrs lists one listen address per process,
// indexed by process ID; id names this process. The call returns once links
// to all peers are up, so every process must start within the dial timeout.
func ConnectTCP(id int, addrs []string) (Endpoint, error) {
	ep, err := transport.DialTCP(id, addrs)
	if err != nil {
		return Endpoint{}, fmt.Errorf("sdso: %w", err)
	}
	return Endpoint{inner: ep}, nil
}

// Elapsed returns time on the endpoint's clock (wall time on real
// transports).
func (e Endpoint) Elapsed() time.Duration {
	if e.inner == nil {
		return 0
	}
	return e.inner.Now()
}
