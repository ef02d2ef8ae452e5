package transport

import (
	"bytes"
	"testing"
	"time"

	"sdso/internal/vtime"
	"sdso/internal/wire"
)

// sharedFrame is a pooled DATA frame shared k ways, routed by its sender
// (wire.Share): Src the sender, Dst -1.
func sharedFrame(src, k int) *wire.Msg {
	m := wire.GetMsg()
	m.Kind, m.Src, m.Dst, m.Stamp, m.Mode, m.Ints = wire.KindData, int32(src), -1, 6, wire.ModeSyncPiggyback, []int64{2, 7}
	m.Payload = append(m.Payload, "one frame for every peer"...)
	wire.Share(m, k)
	return m
}

// intactShared reports whether m still reads as sharedFrame(src, _) built it.
func intactShared(m *wire.Msg, src int) bool {
	return wire.Shared(m) && m.Kind == wire.KindData && m.Src == int32(src) && m.Dst == -1 && m.Stamp == 6 &&
		len(m.Ints) == 2 && bytes.Equal(m.Payload, []byte("one frame for every peer"))
}

// TestSharedSendIsOneStruct pins how each transport carries a shared
// message (DESIGN.md §15): mem and sim deliver the one struct to every
// receiver, routing left as the sender set it, each Recycle returns one
// reference and the last puts the struct back in the pool; a mem receiver
// that departed or closed returns its reference at once. TCP encodes the
// frame, so each Send returns its reference, and each peer decodes a copy
// of its own routed by the link.
func TestSharedSendIsOneStruct(t *testing.T) {
	// recycleAll recycles each delivery in turn: the struct must stay
	// readable until the last.
	recycleAll := func(t *testing.T, m *wire.Msg, eps []Recycler) {
		t.Helper()
		for i, ep := range eps {
			if i > 0 && !intactShared(m, 0) {
				t.Fatalf("after %d of %d Recycles the shared message reads %v", i, len(eps), m)
			}
			ep.Recycle(m)
		}
		if wire.Shared(m) || m.Kind != 0 || len(m.Payload) != 0 {
			t.Fatalf("the last Recycle left the shared message reading %v", m)
		}
	}

	t.Run("mem", func(t *testing.T) {
		net := NewMemNetwork(6)
		defer net.Close()
		Depart(net.Endpoint(4))
		_ = net.Endpoint(5).Close()
		m := sharedFrame(0, 5)
		for to := 1; to <= 5; to++ {
			if err := net.Endpoint(0).Send(to, m); err != nil {
				t.Fatal(err)
			}
		}
		var rs []Recycler
		for to := 1; to <= 3; to++ {
			got, err := net.Endpoint(to).Recv()
			if err != nil {
				t.Fatal(err)
			}
			if got != m || !intactShared(got, 0) {
				t.Fatalf("endpoint %d received %p (%v), want the shared %p routed 0->-1", to, got, got, m)
			}
			rs = append(rs, net.Endpoint(to).(Recycler))
		}
		// Five references went out; the departed and the closed receiver
		// returned theirs, so three Recycles are the last.
		recycleAll(t, m, rs)
	})

	t.Run("sim", func(t *testing.T) {
		sim := vtime.NewSim(vtime.Config{Links: vtime.ConstantDelay(time.Millisecond)})
		m := sharedFrame(0, 3)
		got := make([]*wire.Msg, 4)
		eps := make([]*SimEndpoint, 4)
		for id := range eps {
			id := id
			sim.Spawn(func(p *vtime.Proc) {
				eps[id] = NewSimEndpoint(p, 4, nil)
				if id == 0 {
					for to := 1; to <= 3; to++ {
						if err := eps[0].Send(to, m); err != nil {
							t.Error(err)
						}
					}
					return
				}
				got[id], _ = eps[id].Recv()
			})
		}
		if err := sim.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		var rs []Recycler
		for id := 1; id <= 3; id++ {
			if got[id] != m || !intactShared(got[id], 0) {
				t.Fatalf("proc %d received %p (%v), want the shared %p routed 0->-1", id, got[id], got[id], m)
			}
			rs = append(rs, eps[id])
		}
		recycleAll(t, m, rs)
	})

	t.Run("tcp", func(t *testing.T) {
		eps := tcpMesh(t, 4, TCPConfig{CloseGrace: 200 * time.Millisecond})
		defer func() {
			for _, ep := range eps {
				ep.Close()
			}
		}()
		m := sharedFrame(0, 4) // three Sends and the test's own reference
		for to := 1; to <= 3; to++ {
			if err := eps[0].Send(to, m); err != nil {
				t.Fatal(err)
			}
			if !intactShared(m, 0) {
				t.Fatalf("after Send to %d the shared message reads %v", to, m)
			}
		}
		for to := 1; to <= 3; to++ {
			got := recvN(t, eps[to], 1)[0]
			if got == m || got.Src != 0 || got.Dst != int32(to) || !bytes.Equal(got.Payload, m.Payload) {
				t.Fatalf("endpoint %d received %p (%v), want a copy of its own routed 0->%d", to, got, got, to)
			}
			eps[to].Recycle(got)
		}
		wire.PutMsg(m)
		if wire.Shared(m) || m.Kind != 0 {
			t.Fatalf("each Send did not return its reference: the last one left %v", m)
		}
	})
}
