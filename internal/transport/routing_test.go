package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"sdso/internal/vtime"
	"sdso/internal/wire"
)

// lie is a message whose routing names neither its sender nor its
// receiver. Routing is not encoded, so no transport can deliver it as
// written: every delivery must carry the link's ends instead.
func lie(stamp int64) *wire.Msg {
	return &wire.Msg{Kind: wire.KindData, Src: 1, Dst: 7, Stamp: stamp, Payload: []byte("routed")}
}

// sendLies has endpoint 2 of a three-endpoint group send one lie to 1 by
// Send (stamp 1) and one to 0 and 1 by SendMany (stamp 2). It may run on
// a simulated process, so it reports failures without stopping the caller.
func sendLies(t *testing.T, ep Endpoint) {
	t.Helper()
	if err := ep.Send(1, lie(1)); err != nil {
		t.Errorf("Send: %v", err)
	}
	if err := SendMany(ep, []int{0, 1}, lie(2)); err != nil {
		t.Errorf("SendMany: %v", err)
	}
	if err := Flush(ep); err != nil {
		t.Errorf("Flush: %v", err)
	}
}

// checkRouted demands that m came from `from` to `to`, whatever the
// sender's struct held.
func checkRouted(t *testing.T, m *wire.Msg, from, to int) {
	t.Helper()
	if m.Src != int32(from) || m.Dst != int32(to) || !bytes.Equal(m.Payload, []byte("routed")) {
		t.Errorf("delivered %v, want routing %d->%d from the link", m, from, to)
	}
}

// oneStructDst is where a message mem or sim delivered to `to` says it
// goes: `to` for the plain Send, and -1 for SendMany's lie (stamp 2),
// which is delivered as the one shared struct, routed by its sender.
func oneStructDst(m *wire.Msg, to int) int {
	if m.Stamp == 2 {
		return -1
	}
	return to
}

// recvN receives n messages at ep within a wall-clock deadline.
func recvN(t *testing.T, ep Endpoint, n int) []*wire.Msg {
	t.Helper()
	var got []*wire.Msg
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < n && time.Now().Before(deadline) {
		m, ok, err := ep.RecvTimeout(50 * time.Millisecond)
		if err != nil {
			t.Fatalf("recv at %d: %v", ep.ID(), err)
		}
		if ok {
			got = append(got, m)
		}
	}
	if len(got) != n {
		t.Fatalf("endpoint %d received %d messages, want %d", ep.ID(), len(got), n)
	}
	return got
}

// dialRaw connects to addr, retrying while the listener comes up.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			t.Cleanup(func() { conn.Close() })
			return conn
		}
		if time.Now().After(deadline) {
			t.Fatalf("dial %s: %v", addr, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// handshakeRaw dials addr as node id and completes a handshake — its hello
// out and, when the link is resumable, the endpoint's reply in — returning
// the raw connection.
func handshakeRaw(t *testing.T, addr string, id int, resumable bool) net.Conn {
	t.Helper()
	conn := dialRaw(t, addr)
	hello := &wire.Msg{Kind: wire.KindHello, Stamp: int64(id), Ints: []int64{1, 0, 0}}
	if err := wire.WriteFrame(conn, hello); err != nil {
		t.Fatal(err)
	}
	if !resumable {
		return conn
	}
	var reply wire.Msg
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := wire.ReadFrame(conn, &reply); err != nil || reply.Kind != wire.KindHello {
		t.Fatalf("handshake reply: %v %v", reply.Kind, err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	return conn
}

// rawPeers brings up node 0 of an (1+k)-node mesh whose nodes 1…k are raw
// sockets: each dials node 0, shakes hands, and is then the test's to
// write and read as it likes.
func rawPeers(t *testing.T, k int, cfg TCPConfig) (*TCPEndpoint, []net.Conn) {
	t.Helper()
	lns, addrs := listenLoopback(t, 1+k)
	cfg.Listener = lns[0]
	type dialed struct {
		ep  *TCPEndpoint
		err error
	}
	epCh := make(chan dialed, 1)
	go func() {
		ep, err := DialTCPConfig(0, addrs, cfg)
		epCh <- dialed{ep, err}
	}()
	conns := make([]net.Conn, k)
	for i := range conns {
		conns[i] = handshakeRaw(t, addrs[0], i+1, cfg.Reconnect)
	}
	d := <-epCh
	if d.err != nil {
		t.Fatal(d.err)
	}
	return d.ep, conns
}

// tcpModes are the two kinds of TCP link: final once broken (zero config,
// named for the mesh that used to serve it) and resumable.
var tcpModes = []struct {
	name string
	cfg  TCPConfig
}{
	{"legacy", TCPConfig{CloseGrace: 200 * time.Millisecond}},
	{"session", TCPConfig{Reconnect: true, CloseGrace: 200 * time.Millisecond}},
}

// TestRoutingComesFromTheLink: Src and Dst are not in the encoding, so every
// transport's receive path sets them from the link — the sending endpoint
// and the receiving one. A shared message that mem or sim delivers as the
// one struct (SendMany's copy) keeps the routing its sender gave it: Src
// the sender and Dst -1. Over TCP this is what stops a peer from speaking for another: a
// raw socket that announced itself as node 1 and then writes frames built
// from a message claiming to come from node 0 is still node 1.
func TestRoutingComesFromTheLink(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		mn := NewMemNetwork(3)
		defer mn.Close()
		sendLies(t, mn.Endpoint(2))
		for _, m := range recvN(t, mn.Endpoint(0), 1) {
			checkRouted(t, m, 2, oneStructDst(m, 0))
		}
		for _, m := range recvN(t, mn.Endpoint(1), 2) {
			checkRouted(t, m, 2, oneStructDst(m, 1))
		}
	})

	t.Run("sim", func(t *testing.T) {
		sim := vtime.NewSim(vtime.Config{Links: vtime.ConstantDelay(time.Millisecond)})
		got := make([][]*wire.Msg, 3)
		for id, want := range []int{1, 2, 0} {
			id, want := id, want
			sim.Spawn(func(p *vtime.Proc) {
				ep := NewSimEndpoint(p, 3, nil)
				if id == 2 {
					sendLies(t, ep)
					return
				}
				for len(got[id]) < want {
					m, err := ep.Recv()
					if err != nil {
						return
					}
					got[id] = append(got[id], m)
				}
			})
		}
		if err := sim.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		for id, want := range []int{1, 2} {
			if len(got[id]) != want {
				t.Fatalf("proc %d received %d messages, want %d", id, len(got[id]), want)
			}
			for _, m := range got[id] {
				checkRouted(t, m, 2, oneStructDst(m, id))
			}
		}
	})

	for _, mode := range tcpModes {
		t.Run("tcp/"+mode.name, func(t *testing.T) {
			eps := tcpMesh(t, 3, mode.cfg)
			defer func() {
				for _, ep := range eps {
					ep.Close()
				}
			}()
			sendLies(t, eps[2])
			checkRouted(t, recvN(t, eps[0], 1)[0], 2, 0)
			for _, m := range recvN(t, eps[1], 2) {
				checkRouted(t, m, 2, 1)
			}
		})

		t.Run("tcp/"+mode.name+"/raw", func(t *testing.T) {
			ep, conns := rawPeers(t, 1, mode.cfg)
			defer ep.Close()
			for i := int64(0); i < 3; i++ {
				spoof := lie(i)
				spoof.Src, spoof.Dst = 0, 1
				if err := wire.WriteFrame(conns[0], spoof); err != nil {
					t.Fatal(err)
				}
			}
			for _, m := range recvN(t, ep, 3) {
				checkRouted(t, m, 1, 0)
			}
		})
	}
}

// TestTCPFanoutFrameIsImmutable: a fanout over TCP (SendMany, one shared
// message) encodes the message once per link and puts the very same bytes
// on every link — nothing is patched per destination, so every receiver
// reads what WriteFrame writes for the message — and once the endpoint has
// drained and closed, every frame it staged, queued or retained is back in
// the pool.
func TestTCPFanoutFrameIsImmutable(t *testing.T) {
	for _, mode := range tcpModes {
		t.Run(mode.name, func(t *testing.T) {
			base := wire.LiveFrames()
			ep, conns := rawPeers(t, 3, mode.cfg)
			m := &wire.Msg{Kind: wire.KindData, Src: 5, Dst: 6, Stamp: 300, Obj: 4,
				Ints: []int64{-1, 200}, Payload: []byte("one frame for all")}
			before := wire.EncodeCalls()
			if err := SendMany(ep, []int{1, 2, 3}, m); err != nil {
				t.Fatalf("SendMany: %v", err)
			}
			if d := wire.EncodeCalls() - before; d != 3 {
				t.Fatalf("fanout to 3 peers performed %d encodes, want one per link", d)
			}
			if err := Flush(ep); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			var want bytes.Buffer
			if err := wire.WriteFrame(&want, m); err != nil {
				t.Fatal(err)
			}
			for i, conn := range conns {
				_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				frame := make([]byte, 4)
				if _, err := io.ReadFull(conn, frame); err != nil {
					t.Fatalf("peer %d: read length: %v", i+1, err)
				}
				frame = append(frame, make([]byte, binary.BigEndian.Uint32(frame))...)
				if _, err := io.ReadFull(conn, frame[4:]); err != nil {
					t.Fatalf("peer %d: read body: %v", i+1, err)
				}
				if !bytes.Equal(frame, want.Bytes()) {
					t.Errorf("peer %d read %x, want %x", i+1, frame, want.Bytes())
				}
			}
			if _, err := ep.Drain(); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			if err := ep.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if got := wire.LiveFrames() - base; got != 0 {
				t.Fatalf("live frames after Drain and Close = %d, want 0", got)
			}
		})
	}
}
