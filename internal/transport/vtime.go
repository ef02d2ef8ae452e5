package transport

import (
	"time"

	"sdso/internal/vtime"
	"sdso/internal/wire"
)

// SimEndpoint adapts a vtime.Proc to the Endpoint interface. The experiment
// harness spawns one simulated process per game player (plus, for the
// lock-based protocols, one co-located service process per player) and hands
// each body a SimEndpoint.
type SimEndpoint struct {
	proc  *vtime.Proc
	n     int
	size  SizeFunc
	alive bool
}

var (
	_ Endpoint = (*SimEndpoint)(nil)
	_ Recycler = (*SimEndpoint)(nil)
)

// NewSimEndpoint wraps proc as an endpoint in a group of n simulated
// processes. size chooses the wire size charged to the link model; nil
// defaults to EncodedSize.
func NewSimEndpoint(proc *vtime.Proc, n int, size SizeFunc) *SimEndpoint {
	if size == nil {
		size = EncodedSize
	}
	return &SimEndpoint{proc: proc, n: n, size: size, alive: true}
}

// Proc returns the underlying simulated process.
func (e *SimEndpoint) Proc() *vtime.Proc { return e.proc }

// ID implements Endpoint.
func (e *SimEndpoint) ID() int { return e.proc.ID() }

// N implements Endpoint.
func (e *SimEndpoint) N() int { return e.n }

// Send implements Endpoint. A closed endpoint's Send puts m back in the
// pool (wire.PutPooled), one reference of a shared one.
func (e *SimEndpoint) Send(to int, m *wire.Msg) error {
	if !e.alive {
		wire.PutPooled(m)
		return ErrClosed
	}
	if !wire.Shared(m) { // one struct for every receiver: the sender routed it
		m.Src, m.Dst = int32(e.proc.ID()), int32(to)
	}
	e.proc.Send(to, m, e.size(m))
	return nil
}

// SendMany exists only for the benchmark's tracing decorator
// (MultiSender); it is the SendMany helper.
func (e *SimEndpoint) SendMany(dsts []int, m *wire.Msg) error { return SendMany(e, dsts, m) }

// SendEncoded exists only for the benchmark's tracing decorator
// (EncodedSender); it sends a pooled copy of m.
func (e *SimEndpoint) SendEncoded(to int, _ *wire.Encoded, m *wire.Msg) error {
	return e.Send(to, wire.GetMsgOf(*m))
}

// Recycle implements Recycler, exactly as the in-memory endpoint does: a
// delivered message is the receiver's, one reference of a shared one, so a
// fully consumed one goes back to the free-list.
func (e *SimEndpoint) Recycle(m *wire.Msg) { wire.PutMsg(m) }

// Recv implements Endpoint.
func (e *SimEndpoint) Recv() (*wire.Msg, error) {
	if !e.alive {
		return nil, ErrClosed
	}
	vm, ok := e.proc.Recv()
	if !ok {
		return nil, ErrClosed
	}
	return vm.Payload.(*wire.Msg), nil
}

// RecvTimeout implements Endpoint with a virtual-time deadline; expiries
// are scheduled by the simulator, so runs stay deterministic.
func (e *SimEndpoint) RecvTimeout(d time.Duration) (*wire.Msg, bool, error) {
	if !e.alive {
		return nil, false, ErrClosed
	}
	vm, got, timedOut := e.proc.RecvTimeout(d)
	if timedOut {
		return nil, false, nil
	}
	if !got {
		return nil, false, ErrClosed
	}
	return vm.Payload.(*wire.Msg), true, nil
}

// TryRecv implements Endpoint over the simulated inbox.
func (e *SimEndpoint) TryRecv() (*wire.Msg, bool, error) {
	if !e.alive {
		return nil, false, ErrClosed
	}
	vm, ok := e.proc.TryRecv()
	if !ok {
		return nil, false, nil
	}
	return vm.Payload.(*wire.Msg), true, nil
}

// Now implements Endpoint; it reports virtual time.
func (e *SimEndpoint) Now() time.Duration { return e.proc.Now() }

// Compute implements Endpoint; it advances virtual time.
func (e *SimEndpoint) Compute(d time.Duration) { e.proc.Compute(d) }

// Close implements Endpoint. Simulated endpoints cannot unblock a Recv from
// outside (the simulation owns scheduling); Close only marks the endpoint
// dead for subsequent operations.
func (e *SimEndpoint) Close() error {
	e.alive = false
	return nil
}
