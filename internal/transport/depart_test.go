package transport_test

import (
	"bytes"
	"testing"
	"time"

	"sdso/internal/faultnet"
	"sdso/internal/transport"
	"sdso/internal/wire"
)

// TestDepartedEndpointRecycles pins what Depart does to a finished
// process's endpoint (DESIGN.md §15, the departure rule): what is queued for
// it goes back to the pool at once, one reference of a shared message, and
// so does everything delivered to it later, which it never reports. A Clone or a literal sent to it is left
// alone, as Send leaves it, and can be sent again. Depart is idempotent, and
// a no-op through a wrapper, which does not forward it.
func TestDepartedEndpointRecycles(t *testing.T) {
	payload := []byte("a payload the departed player never reads")
	pooled := func(stamp int64) *wire.Msg {
		m := wire.GetMsg()
		m.Kind, m.Stamp = wire.KindData, stamp
		m.Payload = append(m.Payload, payload...)
		return m
	}
	recycled := func(m *wire.Msg) bool { return m.Kind == 0 && m.Stamp == 0 && len(m.Payload) == 0 }
	// kept sends a Clone and a literal to the departed endpoint twice each:
	// Send must leave both as they were.
	kept := func(t *testing.T, from transport.Endpoint, to int) {
		t.Helper()
		clone := pooled(7).Clone()
		literal := &wire.Msg{Kind: wire.KindSync, Stamp: 8, Payload: payload}
		for _, m := range []*wire.Msg{clone, literal, clone, literal} {
			if err := from.Send(to, m); err != nil {
				t.Fatal(err)
			}
			if recycled(m) || !bytes.Equal(m.Payload, payload) {
				t.Fatalf("Send to a departed endpoint changed a %v it does not own", m)
			}
		}
	}
	// nothing checks that the departed endpoint reports no message.
	nothing := func(t *testing.T, ep transport.Endpoint) {
		t.Helper()
		if m, ok, err := ep.TryRecv(); ok || m != nil || err != nil {
			t.Fatalf("TryRecv on a departed endpoint = %v, %v, %v; want nothing", m, ok, err)
		}
	}
	// shared sends the endpoint `to` one reference of a shared message,
	// keeping one: the message reads as sent for as long as that is not
	// the last.
	shared := func(t *testing.T, from transport.Endpoint, to int) *wire.Msg {
		t.Helper()
		m := sharedFrame(2)
		if err := from.Send(to, m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	// returned checks that every reference to m but the test's own came
	// back, and returns the test's.
	returned := func(t *testing.T, m *wire.Msg) {
		t.Helper()
		if !wire.LastRef(m) || !intactShared(m) {
			t.Fatalf("a shared message sent to a departed endpoint reads %v, its reference not returned", m)
		}
		wire.PutMsg(m)
	}

	t.Run("mem", func(t *testing.T) {
		net := transport.NewMemNetwork(3)
		defer net.Close()
		a, b := net.Endpoint(0), net.Endpoint(1)
		queued := []*wire.Msg{pooled(1), pooled(2)}
		for _, m := range queued {
			if err := a.Send(1, m); err != nil {
				t.Fatal(err)
			}
		}
		before := shared(t, a, 1)
		if wire.LastRef(before) {
			t.Fatal("a queued shared message holds no reference of the queue's")
		}
		transport.Depart(b)
		for _, m := range queued {
			if !recycled(m) {
				t.Fatalf("a message queued before Depart reads %v, not recycled", m)
			}
		}
		returned(t, before)
		later := pooled(3)
		if err := a.Send(1, later); err != nil {
			t.Fatal(err)
		}
		if !recycled(later) {
			t.Fatalf("a message sent after Depart reads %v, not recycled", later)
		}
		returned(t, shared(t, a, 1))
		kept(t, a, 1)
		transport.Depart(b)
		nothing(t, b)

		// Through a wrapper Depart does nothing: the message is delivered.
		c := net.Endpoint(2)
		transport.Depart(faultnet.NewPoisonEndpoint(c, false))
		if err := a.Send(2, pooled(4)); err != nil {
			t.Fatal(err)
		}
		if m, ok, err := c.TryRecv(); !ok || err != nil || m.Stamp != 4 {
			t.Fatalf("after Depart through a wrapper TryRecv = %v, %v, %v; want stamp 4", m, ok, err)
		}

		// A closed endpoint recycles what is sent to it, too.
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		toClosed := pooled(6)
		if err := a.Send(2, toClosed); err != nil {
			t.Fatal(err)
		}
		if !recycled(toClosed) {
			t.Fatalf("a message sent to a closed endpoint reads %v, not recycled", toClosed)
		}
	})

	t.Run("tcp", func(t *testing.T) {
		eps := transport.TCPPair(t, transport.TCPConfig{CloseGrace: 100 * time.Millisecond})
		defer eps[0].Close()
		defer eps[1].Close()
		a, b := eps[0], eps[1]
		// await waits until b has read n data frames from a.
		await := func(n int64) {
			t.Helper()
			for deadline := time.Now().Add(5 * time.Second); transport.Received(b, 0) < n; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("b read %d frames, want %d", transport.Received(b, 0), n)
				}
			}
		}
		base := wire.LiveFrames()
		for stamp := int64(1); stamp <= 2; stamp++ {
			if err := a.Send(1, pooled(stamp)); err != nil {
				t.Fatal(err)
			}
		}
		returned(t, shared(t, a, 1)) // TCP Send returns its reference once the frame is encoded
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		await(3)
		queued := transport.Queued(b)
		if len(queued) != 3 {
			t.Fatalf("%d messages queued, want 3", len(queued))
		}
		transport.Depart(b)
		for _, m := range queued {
			if !recycled(m) {
				t.Fatalf("a message queued before Depart reads %v, not recycled", m)
			}
		}
		if err := a.Send(1, pooled(3)); err != nil {
			t.Fatal(err)
		}
		returned(t, shared(t, a, 1))
		kept(t, a, 1)
		transport.Depart(b)
		transport.Depart(faultnet.NewPoisonEndpoint(b, false))
		if err := a.Flush(); err != nil {
			t.Fatal(err)
		}
		await(3 + 2 + 4)
		if q := transport.Queued(b); len(q) != 0 {
			t.Fatalf("%d messages queued at a departed endpoint", len(q))
		}
		nothing(t, b)
		if live := wire.LiveFrames(); live != base {
			t.Fatalf("%d live frames, want the baseline %d", live, base)
		}
	})
}
