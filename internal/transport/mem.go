package transport

import (
	"fmt"
	"sync"
	"time"

	"sdso/internal/wire"
)

// MemNetwork is an in-process transport connecting n endpoints through
// per-receiver mailboxes. Delivery is immediate and FIFO per sender; it is
// intended for unit and integration tests that exercise protocol logic under
// real goroutine concurrency without a network model.
type MemNetwork struct {
	start time.Time
	eps   []*memEndpoint
}

// NewMemNetwork creates a group of n connected in-memory endpoints.
func NewMemNetwork(n int) *MemNetwork {
	net := &MemNetwork{start: time.Now()}
	net.eps = make([]*memEndpoint, n)
	for i := range net.eps {
		ep := &memEndpoint{net: net, id: i}
		ep.cond = sync.NewCond(&ep.mu)
		net.eps[i] = ep
	}
	return net
}

// Endpoint returns the endpoint for process id.
func (n *MemNetwork) Endpoint(id int) Endpoint { return n.eps[id] }

// Close closes every endpoint in the group.
func (n *MemNetwork) Close() {
	for _, ep := range n.eps {
		_ = ep.Close()
	}
}

type memEndpoint struct {
	net *MemNetwork
	id  int

	mu       sync.Mutex
	cond     *sync.Cond
	queue    mailbox[*wire.Msg]
	closed   bool
	departed bool // Depart was called: deliveries are recycled where they land
}

var (
	_ Endpoint = (*memEndpoint)(nil)
	_ Recycler = (*memEndpoint)(nil)
)

func (e *memEndpoint) ID() int { return e.id }
func (e *memEndpoint) N() int  { return len(e.net.eps) }

// Send implements Endpoint. A message it cannot deliver goes back to the
// pool (wire.PutPooled), one reference of a shared one, whatever the reason.
func (e *memEndpoint) Send(to int, m *wire.Msg) error {
	if to < 0 || to >= len(e.net.eps) {
		wire.PutPooled(m)
		return fmt.Errorf("transport: send to unknown endpoint %d", to)
	}
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		wire.PutPooled(m)
		return ErrClosed
	}
	if !wire.Shared(m) { // a shared message's other receivers may be reading it
		m.Src, m.Dst = int32(e.id), int32(to)
	}
	dst := e.net.eps[to]
	dst.mu.Lock()
	defer dst.mu.Unlock()
	if dst.closed || dst.departed {
		wire.PutPooled(m) // nobody reads it: dropped, like the sim
		return nil
	}
	dst.queue.push(m)
	dst.cond.Signal()
	return nil
}

// SendMany exists only for the benchmark's tracing decorator
// (MultiSender); it is the SendMany helper.
func (e *memEndpoint) SendMany(dsts []int, m *wire.Msg) error { return SendMany(e, dsts, m) }

// SendEncoded exists only for the benchmark's tracing decorator
// (EncodedSender); it sends a pooled copy of m.
func (e *memEndpoint) SendEncoded(to int, _ *wire.Encoded, m *wire.Msg) error {
	return e.Send(to, wire.GetMsgOf(*m))
}

// Recycle implements Recycler: every message this endpoint delivers was
// given away by its sender, one reference of a shared one, so a fully
// consumed message goes back to the free-list.
func (e *memEndpoint) Recycle(m *wire.Msg) { wire.PutMsg(m) }

func (e *memEndpoint) Recv() (*wire.Msg, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.queue.len() == 0 && !e.closed {
		e.cond.Wait()
	}
	if e.queue.len() == 0 {
		return nil, ErrClosed
	}
	return e.queue.pop(), nil
}

// RecvTimeout implements Endpoint with a wall-clock deadline: a timer
// broadcast wakes the cond so the wait observes the expiry.
func (e *memEndpoint) RecvTimeout(d time.Duration) (*wire.Msg, bool, error) {
	deadline := time.Now().Add(d)
	timer := time.AfterFunc(d, func() {
		e.mu.Lock()
		e.cond.Broadcast()
		e.mu.Unlock()
	})
	defer timer.Stop()
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.queue.len() == 0 && !e.closed {
		if !time.Now().Before(deadline) {
			return nil, false, nil
		}
		e.cond.Wait()
	}
	if e.queue.len() == 0 {
		return nil, false, ErrClosed
	}
	return e.queue.pop(), true, nil
}

func (e *memEndpoint) TryRecv() (*wire.Msg, bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.queue.len() == 0 {
		if e.closed {
			return nil, false, ErrClosed
		}
		return nil, false, nil
	}
	return e.queue.pop(), true, nil
}

// depart implements Depart; Send drops later deliveries.
func (e *memEndpoint) depart() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.departed = true
	for e.queue.len() > 0 {
		wire.PutPooled(e.queue.pop()) // a Clone or a literal may share its Payload
	}
}

func (e *memEndpoint) Now() time.Duration { return time.Since(e.net.start) }

func (e *memEndpoint) Compute(time.Duration) {}

func (e *memEndpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.cond.Broadcast()
	return nil
}
