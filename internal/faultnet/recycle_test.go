package faultnet

import (
	"bytes"
	"errors"
	"testing"

	"sdso/internal/transport"
	"sdso/internal/wire"
)

// TestDroppedFramesAreRecycled: a frame the fault layer drops goes back to
// the pool, as the mem endpoint's does when nobody will read it. Send was
// given the message, so its drop, partition and crash branches return it
// (one reference of a shared one); transport.SendMany leaves the caller's
// message alone whatever it drops; and a frame the receive side refuses
// across a partition goes to the wrapped endpoint's Recycle.
func TestDroppedFramesAreRecycled(t *testing.T) {
	payload := []byte("a frame nobody will read")
	pooled := func() *wire.Msg {
		m := wire.GetMsg()
		m.Kind, m.Stamp = wire.KindData, 4
		m.Payload = append(m.Payload, payload...)
		return m
	}
	recycled := func(m *wire.Msg) bool { return m.Kind == 0 && m.Stamp == 0 && len(m.Payload) == 0 }
	intact := func(m *wire.Msg) bool {
		return m.Kind == wire.KindData && m.Stamp == 4 && bytes.Equal(m.Payload, payload)
	}

	for _, c := range []struct {
		name    string
		plan    *Plan
		wantErr error
	}{
		{"drop", &Plan{Default: LinkFaults{DropProb: 1}}, nil},
		{"partition", &Plan{Partitions: [][2]int{{0, 1}}}, nil},
		{"crash", &Plan{Crashes: map[int]Crash{0: {AtTick: 1}}}, ErrCrashed},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := transport.NewMemNetwork(2)
			defer net.Close()
			ep := c.plan.Wrap(net.Endpoint(0), nil)

			m := pooled()
			if err := ep.Send(1, m); !errors.Is(err, c.wantErr) {
				t.Fatalf("Send: %v, want %v", err, c.wantErr)
			}
			if !recycled(m) {
				t.Fatalf("a dropped frame reads %v, not recycled", m)
			}

			shared := pooled()
			wire.Share(shared, 2) // the test keeps one reference
			_ = ep.Send(1, shared)
			if !intact(shared) || !wire.LastRef(shared) {
				t.Fatalf("dropping a shared frame returned other than the one reference Send was given: %v", shared)
			}
			wire.PutMsg(shared)

			kept := pooled()
			_ = transport.SendMany(ep, []int{1}, kept)
			if !intact(kept) {
				t.Fatalf("SendMany dropped the caller's message into the pool: %v", kept)
			}
			if m, ok, _ := net.Endpoint(1).TryRecv(); ok {
				t.Fatalf("the fault layer delivered %v", m)
			}
		})
	}

	t.Run("refused on receipt", func(t *testing.T) {
		net := transport.NewMemNetwork(2)
		defer net.Close()
		ep := (&Plan{OneWay: [][2]int{{1, 0}}}).Wrap(net.Endpoint(0), nil)
		m := pooled()
		if err := net.Endpoint(1).Send(0, m); err != nil { // the sender is not wrapped
			t.Fatal(err)
		}
		if got, ok, err := ep.TryRecv(); ok || err != nil {
			t.Fatalf("TryRecv across the cut = %v, %v, %v; want nothing", got, ok, err)
		}
		if !recycled(m) {
			t.Fatalf("a frame refused across a partition reads %v, not recycled", m)
		}
	})
}
