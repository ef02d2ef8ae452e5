package core

import (
	"sdso/internal/transport"
	"sdso/internal/wire"
)

// poisonEndpoint is the witness for the message rule (DESIGN.md §15: a sent
// message is given away; a recycled one is gone). With poison set, Recycle
// scribbles 0xFF over the struct's header and over every byte of its
// Payload buffer before handing it on to the pool, so anything still
// reading a message after its receiver recycled it — a sender that kept the
// struct it sent, a receiver that kept a slice of a payload — computes with
// garbage, and under -race is reported outright. Ints are left alone: they
// are shared and immutable, and receivers legitimately keep them. onSend,
// when set, sees every frame the runtime sends before it leaves: each
// message handed to Send and, once per recipient, the header of a shared
// frame handed to SendEncoded (which the caller keeps).
//
// It forwards every optional capability the runtime probes for, with or
// without poison, so a poisoned and an unpoisoned run differ in nothing
// but the scribbling.
type poisonEndpoint struct {
	transport.Endpoint
	poison bool
	onSend func(to int, m *wire.Msg)
}

var (
	_ transport.MultiSender      = (*poisonEndpoint)(nil)
	_ transport.EncodedSender    = (*poisonEndpoint)(nil)
	_ transport.Flusher          = (*poisonEndpoint)(nil)
	_ transport.Recycler         = (*poisonEndpoint)(nil)
	_ transport.LivenessReporter = (*poisonEndpoint)(nil)
)

// NewPoisonEndpoint lets the whole-game tests in package core_test wrap
// their endpoints.
func NewPoisonEndpoint(ep transport.Endpoint, poison bool) transport.Endpoint {
	return &poisonEndpoint{Endpoint: ep, poison: poison}
}

// NewObservedEndpoint wraps ep, unpoisoned, with onSend watching its sends.
func NewObservedEndpoint(ep transport.Endpoint, onSend func(to int, m *wire.Msg)) transport.Endpoint {
	return &poisonEndpoint{Endpoint: ep, onSend: onSend}
}

func (p *poisonEndpoint) Send(to int, m *wire.Msg) error {
	if p.onSend != nil {
		p.onSend(to, m)
	}
	return p.Endpoint.Send(to, m)
}

func (p *poisonEndpoint) SendMany(dsts []int, m *wire.Msg) error {
	return transport.SendMany(p.Endpoint, dsts, m)
}

// SendEncoded forwards the shared frame when the wrapped endpoint takes
// one (mem, sim) and sends a private clone otherwise (faultnet) — either
// way the caller keeps m.
func (p *poisonEndpoint) SendEncoded(to int, enc *wire.Encoded, m *wire.Msg) error {
	if p.onSend != nil {
		p.onSend(to, m)
	}
	if es, ok := p.Endpoint.(transport.EncodedSender); ok {
		return es.SendEncoded(to, enc, m)
	}
	return p.Endpoint.Send(to, m.Clone())
}

func (p *poisonEndpoint) Flush() error { return transport.Flush(p.Endpoint) }

func (p *poisonEndpoint) PeerGone(peer int) bool { return transport.PeerGone(p.Endpoint, peer) }

func (p *poisonEndpoint) Recycle(m *wire.Msg) {
	if p.poison {
		buf := m.Payload[:cap(m.Payload)]
		for i := range buf {
			buf[i] = 0xFF
		}
		*m = wire.Msg{Kind: 0xFF, Src: -1, Dst: -1, Stamp: -1, Obj: ^uint32(0), Mode: 0xFF, Payload: buf}
	}
	transport.Recycle(p.Endpoint, m)
}
