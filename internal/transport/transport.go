// Package transport abstracts the communication substrate under the S-DSO
// runtime. The paper's S-DSO is "directly layered onto sockets"; this
// package provides that socket layer (TCP, see tcp.go), an in-memory
// channel-based equivalent for unit tests (mem.go), and a virtual-time
// implementation backed by the vtime simulator (vtime.go) that the
// experiment harness uses to model the paper's 16-workstation cluster.
//
// Protocols are written against Endpoint only, so the same protocol code
// runs on all three substrates.
package transport

import (
	"errors"
	"fmt"
	"time"

	"sdso/internal/wire"
)

// ErrClosed is returned by Send and Recv after the endpoint is closed.
var ErrClosed = errors.New("transport: endpoint closed")

// ErrPeerGone is returned by Send when the link to the peer is broken and
// the peer did not legitimately depart (it never announced DONE): the
// transport can no longer reach a process that should still be running.
// Failure detectors treat it as evidence of a crash; sends to peers that
// announced DONE before hanging up keep returning nil (expected departure).
var ErrPeerGone = errors.New("transport: peer gone without announcing done")

// Endpoint is one process's connection to the group. Implementations
// guarantee FIFO delivery per sender pair and never duplicate messages.
// Send never blocks on the receiver; Recv blocks until a message arrives or
// the endpoint closes.
type Endpoint interface {
	// ID returns this process's identity within the group (0..N-1).
	ID() int
	// N returns the size of the group.
	N() int
	// Send transmits m to process `to`. Whatever m's Src and Dst held, the
	// delivered message's are this endpoint and `to`: routing is the
	// link's, set by the receiving transport, never read off the frame.
	// A shared message (wire.Share) is the exception where the struct
	// itself is delivered (mem, sim): one struct goes to several
	// receivers, so its routing is the sender's, Src itself and Dst -1,
	// and Send leaves it alone.
	//
	// A sent message is given away, whatever Send returned: the struct and
	// its Payload belong to the receiver until it recycles them (the
	// in-memory and simulated transports deliver the very struct), so the
	// sender neither reads, writes, resends nor retains m afterwards — it
	// keeps values, and builds a fresh message to retransmit. A shared
	// message is given away one reference per Send, and each receiver's
	// Recycle, or the path that drops the delivery, returns one. Ints is
	// the exception: it is shared, and immutable from the moment it is
	// sent, so one beacon may ride many messages and outlive all of them.
	// A received message's Ints are immutable too: TCP, the one transport
	// that decodes, carves them from a wire.IntsChunk of its own.
	Send(to int, m *wire.Msg) error
	// Recv returns the next incoming message.
	Recv() (*wire.Msg, error)
	// TryRecv returns a queued incoming message without blocking; ok is
	// false when none is available. Arrival timing is scheduling-
	// dependent on real transports; deterministic experiment drivers use
	// it only on the simulated transport.
	TryRecv() (m *wire.Msg, ok bool, err error)
	// RecvTimeout blocks like Recv but gives up after d of this
	// process's time (virtual time on simulated transports, wall time
	// otherwise). ok is false with a nil error when the timeout expired;
	// failure detectors build suspicion on top of this primitive.
	RecvTimeout(d time.Duration) (m *wire.Msg, ok bool, err error)
	// Now returns elapsed time on this process's clock: virtual time on
	// simulated transports, wall time otherwise. Protocols use it for
	// overhead accounting.
	Now() time.Duration
	// Compute accounts d of application CPU work. On the simulated
	// transport this advances virtual time; on real transports it is a
	// no-op (real computation already takes real time).
	Compute(d time.Duration)
	// Close shuts the endpoint down, unblocking any Recv.
	Close() error
}

// SizeFunc chooses the wire size the network model charges for a message.
// The paper reports both control and data messages averaging 2048 bytes; the
// experiment harness uses FixedSize(2048) to mirror that, while EncodedSize
// charges the actual codec length.
type SizeFunc func(m *wire.Msg) int

// FixedSize returns a SizeFunc charging every message the same size.
func FixedSize(n int) SizeFunc { return func(*wire.Msg) int { return n } }

// EncodedSize charges each message its exact binary-encoded length.
func EncodedSize(m *wire.Msg) int { return m.EncodedSize() }

// MultiSender and EncodedSender are the send capabilities the benchmark's
// tracing decorator forwards and requires of the endpoints it wraps. No
// program path probes for them: mem, sim and TCP keep one-line shims for
// that decorator alone (SendMany, and a Send of a pooled copy of m).
type MultiSender interface {
	SendMany(dsts []int, m *wire.Msg) error
}

// EncodedSender: see MultiSender.
type EncodedSender interface {
	SendEncoded(to int, enc *wire.Encoded, m *wire.Msg) error
}

// Flusher is an optional Endpoint capability: endpoints that coalesce
// frames in per-peer write buffers expose a Flush barrier. The runtime
// calls it at the end of each exchange round (and before blocking in a
// receive loop) so deferred frames actually hit the wire. Flush errors are
// advisory — a broken link also surfaces on the next Send to that peer.
type Flusher interface {
	Flush() error
}

// LivenessReporter is an optional Endpoint capability: transports with
// their own connectivity signal (broken sockets, expired reconnect grace)
// report positive evidence that a peer's process is unreachable. False
// means "no evidence", not "alive" — in-memory and simulated transports
// never report anyone gone. Failure detectors use it to short-circuit
// their timeout budget for peers the transport already knows are dead,
// which is what separates a dead socket from a merely slow peer on real
// TCP.
type LivenessReporter interface {
	PeerGone(peer int) bool
}

// Recycler is an optional Endpoint capability, and the other half of the
// Send rule: a delivered message is the receiver's — given away by its
// sender (mem and sim deliver the very struct, one reference of a shared
// one) or decoded from a frame into a pooled struct (TCP) — so the receiver
// hands a fully consumed one back to the free-list (wire.PutMsg) and
// messages circulate instead of being allocated. Every transport in this
// package implements it; wrappers forward to whatever they wrap. The caller
// must hold no reference into the struct or its Payload afterwards, but may
// keep m.Ints (a beacon outlives its message): wire.PutMsg takes the struct
// and the Payload buffer only. Recycling is optional per message — one
// whose Payload is retained (a vaulted checkpoint, a parked reply) is
// simply never handed back.
type Recycler interface {
	Recycle(m *wire.Msg)
}

// SendMany transmits m to every destination in dsts, in order, as one
// shared message (wire.Share): a pooled copy of m, routed Src this endpoint
// and Dst -1, of which each Send gives one reference away. The caller keeps
// m, which may be a literal it sends again. It is best-effort across all
// destinations with errors joined, so one dead peer does not starve the
// rest of a multicast.
func SendMany(ep Endpoint, dsts []int, m *wire.Msg) error {
	c := wire.GetMsgOf(*m)
	c.Src, c.Dst = int32(ep.ID()), -1
	wire.Share(c, len(dsts)+1) // and SendMany's own, returned below
	defer wire.PutMsg(c)
	var errs []error
	for _, to := range dsts {
		if err := ep.Send(to, c); err != nil {
			errs = append(errs, fmt.Errorf("send to %d: %w", to, err))
		}
	}
	return errors.Join(errs...)
}

// Flush forces any frames deferred in the endpoint's write buffers onto
// the wire; it is a no-op for endpoints that deliver eagerly.
func Flush(ep Endpoint) error {
	if f, ok := ep.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// Recycle returns a fully consumed received message to the endpoint's
// free-list when the endpoint supports it, and drops it otherwise. The
// caller must not touch m afterwards.
func Recycle(ep Endpoint, m *wire.Msg) {
	if r, ok := ep.(Recycler); ok {
		r.Recycle(m)
	}
}

// Depart tells ep that its process has finished and will never receive
// again: what is queued for it, and what is delivered to it later, goes
// back to the pool (wire.PutPooled: one reference of a shared message)
// instead of waiting in a mailbox nobody reads. Its hook is unexported, so a wrapper
// does not forward it: through one, and on the simulated transport, Depart
// is a no-op.
func Depart(ep Endpoint) {
	if d, ok := ep.(interface{ depart() }); ok {
		d.depart()
	}
}

// PeerGone reports whether the endpoint has positive evidence that peer's
// process is unreachable; endpoints without a liveness signal report
// false for everyone.
func PeerGone(ep Endpoint, peer int) bool {
	if lr, ok := ep.(LivenessReporter); ok {
		return lr.PeerGone(peer)
	}
	return false
}

// Broadcast is SendMany to every process in the group but the sender.
func Broadcast(ep Endpoint, m *wire.Msg) error {
	dsts := make([]int, 0, ep.N()-1)
	for i := 0; i < ep.N(); i++ {
		if i != ep.ID() {
			dsts = append(dsts, i)
		}
	}
	return SendMany(ep, dsts, m)
}
