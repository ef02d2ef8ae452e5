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

// memItem is one queued delivery: either an eagerly delivered Msg pointer
// (plain Send — the receiver sees the very struct the sender passed, which
// Send gave away: the struct and its Payload are the receiver's from then
// on) or a shared encoding from a SendMany fanout, decoded lazily at
// receive time into a pooled struct so each receiver gets a private copy
// (copy-on-read) while the fanout itself marshaled only once. Either way
// the delivered message is the receiver's to Recycle.
type memItem struct {
	m   *wire.Msg
	enc *wire.Encoded
	src int32 // the sender of an enc delivery; the receiver is the queue's owner
}

type memEndpoint struct {
	net *MemNetwork
	id  int

	mu       sync.Mutex
	cond     *sync.Cond
	queue    mailbox[memItem]
	ints     wire.IntsChunk // what pop carves decoded Ints from (under mu)
	closed   bool
	departed bool // Depart was called: deliveries are recycled where they land
}

var (
	_ Endpoint      = (*memEndpoint)(nil)
	_ MultiSender   = (*memEndpoint)(nil)
	_ EncodedSender = (*memEndpoint)(nil)
	_ Recycler      = (*memEndpoint)(nil)
)

func (e *memEndpoint) ID() int { return e.id }
func (e *memEndpoint) N() int  { return len(e.net.eps) }

func (e *memEndpoint) Send(to int, m *wire.Msg) error {
	if to < 0 || to >= len(e.net.eps) {
		return fmt.Errorf("transport: send to unknown endpoint %d", to)
	}
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if !wire.Shared(m) { // a shared message's other receivers may be reading it
		m.Src, m.Dst = int32(e.id), int32(to)
	}
	dst := e.net.eps[to]
	dst.mu.Lock()
	defer dst.mu.Unlock()
	if dst.closed || dst.departed {
		wire.PutPooled(m) // nobody reads it: dropped, like the sim, and its reference returned
		return nil
	}
	dst.queue.push(memItem{m: m})
	dst.cond.Signal()
	return nil
}

// SendEncoded implements EncodedSender: the shared frame is retained and
// queued as-is; the receiver decodes its own copy (see pop).
func (e *memEndpoint) SendEncoded(to int, enc *wire.Encoded, m *wire.Msg) error {
	if to < 0 || to >= len(e.net.eps) {
		return fmt.Errorf("transport: send to unknown endpoint %d", to)
	}
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	dst := e.net.eps[to]
	dst.mu.Lock()
	defer dst.mu.Unlock()
	if dst.closed || dst.departed {
		return nil // dropped, as in Send; the frame was never retained
	}
	dst.queue.push(memItem{enc: enc.Retain(), src: int32(e.id)})
	dst.cond.Signal()
	return nil
}

// SendMany implements MultiSender: one encode, shared across destinations.
func (e *memEndpoint) SendMany(dsts []int, m *wire.Msg) error {
	return sendManyEncoded(e, dsts, m)
}

// pop dequeues the head item (e.mu held) and materializes a Msg: eager
// deliveries pass the given-away pointer through, shared encodings decode
// a private copy into a pooled struct and set its routing from the link.
func (e *memEndpoint) pop() (*wire.Msg, error) {
	it := e.queue.pop()
	if it.enc == nil {
		return it.m, nil
	}
	defer it.enc.Release()
	m := wire.GetMsg()
	if err := it.enc.DecodeCarved(m, &e.ints); err != nil {
		wire.PutMsg(m)
		return nil, err
	}
	m.Src, m.Dst = it.src, int32(e.id)
	return m, nil
}

// Recycle implements Recycler: every message this endpoint delivers is the
// receiver's alone — Send gave the sender's struct away, a SendMany
// delivery was decoded into a pooled one — so a fully consumed message goes
// back to the free-list.
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
	return e.pop()
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
	m, err := e.pop()
	return m, err == nil, err
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
	m, err := e.pop()
	return m, err == nil, err
}

// depart implements Depart; Send and SendEncoded drop later deliveries.
func (e *memEndpoint) depart() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.departed = true
	for e.queue.len() > 0 {
		if it := e.queue.pop(); it.enc != nil {
			it.enc.Release()
		} else {
			wire.PutPooled(it.m) // a Clone or a literal may share its Payload
		}
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
