package faultnet

import (
	"sync/atomic"

	"sdso/internal/transport"
	"sdso/internal/wire"
)

// PoisonEndpoint is the witness for the message rule (DESIGN.md §15: a sent
// message is given away; a recycled one is gone). With poison set, Recycle
// scribbles 0xFF over the struct's header and over every byte of its
// Payload buffer before handing it on to the pool, so anything still
// reading a message after its receiver recycled it — a sender that kept the
// struct it sent, a receiver that kept a slice of a payload — computes with
// garbage, and under -race is reported outright. Ints are left alone: they
// are shared and immutable, and receivers legitimately keep them. onSend,
// when set, sees every frame the protocol sends before it leaves: each
// message handed to Send and, once per recipient, the header of a shared
// frame handed to SendEncoded (which the caller keeps).
//
// It forwards every optional capability a protocol probes for, with or
// without poison, so a poisoned and an unpoisoned run differ in nothing
// but the scribbling. Whole-game tests of every protocol that recycles wrap
// their endpoints in it.
type PoisonEndpoint struct {
	transport.Endpoint
	poison   bool
	onSend   func(to int, m *wire.Msg)
	recycled atomic.Int64
}

var (
	_ transport.MultiSender      = (*PoisonEndpoint)(nil)
	_ transport.EncodedSender    = (*PoisonEndpoint)(nil)
	_ transport.Flusher          = (*PoisonEndpoint)(nil)
	_ transport.Recycler         = (*PoisonEndpoint)(nil)
	_ transport.LivenessReporter = (*PoisonEndpoint)(nil)
)

// NewPoisonEndpoint wraps ep; poison false keeps the wrapper and drops the
// scribbling, for the unpoisoned half of a comparison.
func NewPoisonEndpoint(ep transport.Endpoint, poison bool) *PoisonEndpoint {
	return &PoisonEndpoint{Endpoint: ep, poison: poison}
}

// NewObservedEndpoint wraps ep, unpoisoned, with onSend watching its sends.
func NewObservedEndpoint(ep transport.Endpoint, onSend func(to int, m *wire.Msg)) *PoisonEndpoint {
	return &PoisonEndpoint{Endpoint: ep, onSend: onSend}
}

// Recycled returns how many messages the protocol has recycled through p.
func (p *PoisonEndpoint) Recycled() int64 { return p.recycled.Load() }

// Send implements transport.Endpoint.
func (p *PoisonEndpoint) Send(to int, m *wire.Msg) error {
	if p.onSend != nil {
		p.onSend(to, m)
	}
	return p.Endpoint.Send(to, m)
}

// SendMany implements transport.MultiSender.
func (p *PoisonEndpoint) SendMany(dsts []int, m *wire.Msg) error {
	return transport.SendMany(p.Endpoint, dsts, m)
}

// SendEncoded forwards the shared frame when the wrapped endpoint takes
// one (mem, sim) and sends a private clone otherwise (faultnet) — either
// way the caller keeps m.
func (p *PoisonEndpoint) SendEncoded(to int, enc *wire.Encoded, m *wire.Msg) error {
	if p.onSend != nil {
		p.onSend(to, m)
	}
	if es, ok := p.Endpoint.(transport.EncodedSender); ok {
		return es.SendEncoded(to, enc, m)
	}
	return p.Endpoint.Send(to, m.Clone())
}

// Flush implements transport.Flusher.
func (p *PoisonEndpoint) Flush() error { return transport.Flush(p.Endpoint) }

// PeerGone implements transport.LivenessReporter.
func (p *PoisonEndpoint) PeerGone(peer int) bool { return transport.PeerGone(p.Endpoint, peer) }

// Recycle implements transport.Recycler, scribbling first when poisoned
// and m is about to go back to the pool: a shared message's other holders
// still read it until the last of them recycles (wire.LastRef).
func (p *PoisonEndpoint) Recycle(m *wire.Msg) {
	p.recycled.Add(1)
	if p.poison && wire.LastRef(m) {
		buf := m.Payload[:cap(m.Payload)]
		for i := range buf {
			buf[i] = 0xFF
		}
		*m = wire.Msg{Kind: 0xFF, Src: -1, Dst: -1, Stamp: -1, Obj: ^uint32(0), Mode: 0xFF, Payload: buf}
	}
	transport.Recycle(p.Endpoint, m)
}
