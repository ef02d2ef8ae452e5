package transport_test

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"sdso/internal/faultnet"
	"sdso/internal/transport"
	"sdso/internal/vtime"
	"sdso/internal/wire"
)

// The message rule's conformance body (DESIGN.md §15), run over every
// transport, bare and behind each wrapper a protocol may see it through.

// transportCase builds groups of one transport.
type transportCase struct {
	name string
	// oneStruct: the transport delivers the struct that was sent (mem,
	// sim); TCP delivers a copy decoded from the frame, routed by the link.
	oneStruct bool
	// departs: the transport has Depart, and drops what is sent to a
	// departed or closed endpoint (mem, TCP). The simulated one has no
	// Depart, and a closed simulated endpoint keeps its inbox.
	departs bool
	// play builds an n-endpoint group, hands its endpoints to prepare,
	// then runs script on each of them behind wrap — on a simulated
	// process of its own for sim, on a goroutine of its own otherwise —
	// and returns once every script has, with the group closed.
	play func(t *testing.T, n int, wrap wrapper, prepare func(raw []transport.Endpoint), script func(ep transport.Endpoint))
}

// wrapper puts an endpoint behind a layer a protocol may see it through.
type wrapper func(transport.Endpoint) transport.Endpoint

var transportCases = []transportCase{
	{name: "mem", oneStruct: true, departs: true, play: func(t *testing.T, n int, wrap wrapper, prepare func([]transport.Endpoint), script func(transport.Endpoint)) {
		net := transport.NewMemNetwork(n)
		defer net.Close()
		raw := make([]transport.Endpoint, n)
		for i := range raw {
			raw[i] = net.Endpoint(i)
		}
		prepare(raw)
		runScripts(raw, wrap, script)
	}},
	{name: "sim", oneStruct: true, play: func(t *testing.T, n int, wrap wrapper, prepare func([]transport.Endpoint), script func(transport.Endpoint)) {
		sim := vtime.NewSim(vtime.Config{Links: vtime.ConstantDelay(time.Millisecond)})
		raw := make([]transport.Endpoint, n)
		for i := range raw {
			p := sim.Spawn(func(*vtime.Proc) { script(wrap(raw[i])) })
			raw[i] = transport.NewSimEndpoint(p, n, nil)
		}
		prepare(raw)
		if err := sim.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
	}},
	{name: "tcp", departs: true, play: func(t *testing.T, n int, wrap wrapper, prepare func([]transport.Endpoint), script func(transport.Endpoint)) {
		base := wire.LiveFrames()
		eps := transport.TCPMesh(t, n, transport.TCPConfig{CloseGrace: 100 * time.Millisecond})
		raw := make([]transport.Endpoint, n)
		for i, ep := range eps {
			raw[i] = ep
		}
		prepare(raw)
		runScripts(raw, wrap, script)
		for _, ep := range eps {
			ep.Close()
		}
		if live := wire.LiveFrames() - base; live != 0 {
			t.Errorf("%d frames still held once every endpoint closed", live)
		}
	}},
}

var wrappers = []struct {
	name string
	wrap wrapper
}{
	{"bare", func(ep transport.Endpoint) transport.Endpoint { return ep }},
	{"faultnet", func(ep transport.Endpoint) transport.Endpoint { return (&faultnet.Plan{Seed: 1}).Wrap(ep, nil) }},
	{"poison", func(ep transport.Endpoint) transport.Endpoint { return faultnet.NewPoisonEndpoint(ep, true) }},
}

// runScripts runs script on every endpoint of raw, behind wrap, each on a
// goroutine of its own, and waits for them all.
func runScripts(raw []transport.Endpoint, wrap wrapper, script func(transport.Endpoint)) {
	var wg sync.WaitGroup
	for _, ep := range raw {
		wg.Add(1)
		go func() {
			defer wg.Done()
			script(wrap(ep))
		}()
	}
	wg.Wait()
}

// sharedFrame is a pooled DATA frame shared k ways, routed by its sender,
// endpoint 0 (wire.Share): Src 0, Dst -1.
func sharedFrame(k int) *wire.Msg {
	m := wire.GetMsg()
	m.Kind, m.Src, m.Dst, m.Stamp, m.Mode, m.Ints = wire.KindData, 0, -1, 6, wire.ModeSyncPiggyback, []int64{2, 7}
	m.Payload = append(m.Payload, "one frame for every peer"...)
	wire.Share(m, k)
	return m
}

// intactShared reports whether m still reads as sharedFrame built it.
func intactShared(m *wire.Msg) bool {
	return wire.Shared(m) && m.Kind == wire.KindData && m.Src == 0 && m.Dst == -1 && m.Stamp == 6 &&
		slices.Equal(m.Ints, []int64{2, 7}) && bytes.Equal(m.Payload, []byte("one frame for every peer"))
}

// sameFrame reports whether a and b carry the same frame: every encoded
// field alike.
func sameFrame(a, b *wire.Msg) bool {
	return a.Kind == b.Kind && a.Stamp == b.Stamp && a.Obj == b.Obj && a.Mode == b.Mode &&
		slices.Equal(a.Ints, b.Ints) && bytes.Equal(a.Payload, b.Payload)
}

// conform is the body. Endpoint 0 sends, 1 and 2 receive, and where the
// transport departs, 3 has departed and 4 has closed before anything is
// sent. It checks that
//   - a Send gives away exactly one reference of a shared message,
//     whatever it returns: with every delivery recycled, the sender's own
//     reference is the last, and so it is after a closed sender's Send;
//   - a shared message reaches every receiver unchanged, as the one struct
//     routed by its sender (mem, sim) or as a copy routed by the link (TCP);
//   - a departed or closed receiver returns its reference;
//   - nothing writes into a shared struct, sender or receivers;
//   - transport.SendMany leaves the caller's message usable: a literal is
//     sent again, and a pooled one stays the caller's.
func conform(t *testing.T, c transportCase, wrap wrapper) {
	live, gone := []int{1, 2}, []int(nil)
	if c.departs {
		gone = []int{3, 4}
	}
	dsts := append(slices.Clone(live), gone...)
	shared := sharedFrame(len(dsts) + 1) // a reference per Send, and the sender's own
	ping := &wire.Msg{Kind: wire.KindSync, Stamp: 9, Ints: []int64{5}, Payload: []byte("ping")}
	pooled := wire.GetMsgOf(*ping)
	kept := []*wire.Msg{ping, pooled, ping}

	// recv receives one message at ep and checks it carries want, routed
	// as the transport routes a shared message.
	recv := func(ep transport.Endpoint, want *wire.Msg) *wire.Msg {
		m, ok, err := ep.RecvTimeout(5 * time.Second)
		if !ok || err != nil {
			t.Errorf("endpoint %d: RecvTimeout = %v, %v", ep.ID(), ok, err)
			return nil
		}
		dst := int32(-1)
		if !c.oneStruct {
			dst = int32(ep.ID())
		}
		if !sameFrame(m, want) || m.Src != 0 || m.Dst != dst {
			t.Errorf("endpoint %d received %v, want %v routed 0->%d", ep.ID(), m, want, dst)
		}
		return m
	}

	c.play(t, 5, wrap, func(raw []transport.Endpoint) {
		if c.departs {
			transport.Depart(raw[3])
			_ = raw[4].Close()
		}
	}, func(ep transport.Endpoint) {
		switch id := ep.ID(); {
		case id == 0:
			for _, to := range dsts {
				if err := ep.Send(to, shared); err != nil && !errors.Is(err, transport.ErrPeerGone) {
					t.Errorf("Send to %d: %v", to, err)
				}
				if !intactShared(shared) {
					t.Errorf("after the Send to %d the shared message reads %v", to, shared)
				}
			}
			for _, m := range kept {
				if err := transport.SendMany(ep, live, m); err != nil {
					t.Errorf("SendMany: %v", err)
				}
				if !sameFrame(m, ping) || wire.Shared(m) {
					t.Errorf("SendMany left the caller's message reading %v", m)
				}
			}
			if err := transport.Flush(ep); err != nil {
				t.Errorf("Flush: %v", err)
			}
		case slices.Contains(live, id):
			m := recv(ep, shared)
			if m == nil {
				return
			}
			if (m == shared) != c.oneStruct {
				t.Errorf("endpoint %d: delivered the sent struct %v, want %v", id, m == shared, c.oneStruct)
			}
			if !intactShared(shared) {
				t.Errorf("endpoint %d: on receipt the shared message reads %v", id, shared)
			}
			transport.Recycle(ep, m)
			for range kept {
				if m := recv(ep, ping); m != nil {
					transport.Recycle(ep, m)
				}
			}
		}
	})

	if !wire.LastRef(shared) || !intactShared(shared) {
		t.Fatalf("with every delivery recycled the shared message reads %v, or the sender's reference is not its last", shared)
	}
	wire.PutMsg(shared)
	if wire.Shared(shared) || shared.Kind != 0 {
		t.Fatalf("the sender's last reference left %v", shared)
	}
	wire.PutMsg(pooled)

	refused := sharedFrame(2)
	c.play(t, 2, wrap, func(raw []transport.Endpoint) { _ = raw[0].Close() }, func(ep transport.Endpoint) {
		if ep.ID() == 0 && ep.Send(1, refused) == nil {
			t.Error("a closed endpoint's Send returned no error")
		}
	})
	if !wire.LastRef(refused) || !intactShared(refused) {
		t.Fatalf("after a closed sender's Send the shared message reads %v, or the sender's reference is not its last", refused)
	}
	wire.PutMsg(refused)
}

// TestSharedSendIsOneStruct runs the conformance body over mem, sim and
// TCP, each bare, behind faultnet and behind the poison endpoint.
func TestSharedSendIsOneStruct(t *testing.T) {
	for _, c := range transportCases {
		t.Run(c.name, func(t *testing.T) {
			for _, w := range wrappers {
				t.Run(w.name, func(t *testing.T) { conform(t, c, w.wrap) })
			}
		})
	}
}
