package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"sdso/internal/vtime"
	"sdso/internal/wire"
)

func TestMemSendRecv(t *testing.T) {
	n := NewMemNetwork(3)
	defer n.Close()
	a, b := n.Endpoint(0), n.Endpoint(1)
	if err := a.Send(1, &wire.Msg{Kind: wire.KindSync, Stamp: 9}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	m, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if m.Kind != wire.KindSync || m.Stamp != 9 || m.Src != 0 || m.Dst != 1 {
		t.Errorf("got %+v", m)
	}
}

func TestMemFIFOPerSender(t *testing.T) {
	n := NewMemNetwork(2)
	defer n.Close()
	a, b := n.Endpoint(0), n.Endpoint(1)
	for i := 0; i < 100; i++ {
		if err := a.Send(1, &wire.Msg{Kind: wire.KindData, Stamp: int64(i)}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	for i := 0; i < 100; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if m.Stamp != int64(i) {
			t.Fatalf("out of order: got stamp %d at position %d", m.Stamp, i)
		}
	}
}

func TestMemCloseUnblocksRecv(t *testing.T) {
	n := NewMemNetwork(2)
	ep := n.Endpoint(0)
	done := make(chan error, 1)
	go func() {
		_, err := ep.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := ep.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Recv after close = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

func TestMemSendToClosedPeerDropped(t *testing.T) {
	n := NewMemNetwork(2)
	defer n.Close()
	if err := n.Endpoint(1).Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := n.Endpoint(0).Send(1, &wire.Msg{Kind: wire.KindSync}); err != nil {
		t.Errorf("Send to closed peer = %v, want nil (dropped)", err)
	}
}

func TestMemConcurrentSenders(t *testing.T) {
	n := NewMemNetwork(4)
	defer n.Close()
	const per = 50
	var wg sync.WaitGroup
	for src := 1; src < 4; src++ {
		src := src
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := n.Endpoint(src)
			for i := 0; i < per; i++ {
				if err := ep.Send(0, &wire.Msg{Kind: wire.KindData, Stamp: int64(i)}); err != nil {
					t.Errorf("Send: %v", err)
				}
			}
		}()
	}
	got := make(map[int32]int64)
	for i := 0; i < 3*per; i++ {
		m, err := n.Endpoint(0).Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if m.Stamp != got[m.Src] {
			t.Fatalf("per-sender FIFO violated: src %d stamp %d want %d", m.Src, m.Stamp, got[m.Src])
		}
		got[m.Src]++
	}
	wg.Wait()
}

func TestBroadcast(t *testing.T) {
	n := NewMemNetwork(4)
	defer n.Close()
	if err := Broadcast(n.Endpoint(2), &wire.Msg{Kind: wire.KindSync, Stamp: 5}); err != nil {
		t.Fatalf("Broadcast: %v", err)
	}
	for _, id := range []int{0, 1, 3} {
		m, err := n.Endpoint(id).Recv()
		if err != nil {
			t.Fatalf("Recv at %d: %v", id, err)
		}
		if m.Src != 2 || m.Stamp != 5 {
			t.Errorf("endpoint %d got %+v", id, m)
		}
	}
}

func TestSizeFuncs(t *testing.T) {
	m := &wire.Msg{Kind: wire.KindData, Payload: make([]byte, 100)}
	if got := FixedSize(2048)(m); got != 2048 {
		t.Errorf("FixedSize = %d", got)
	}
	if got := EncodedSize(m); got != m.EncodedSize() {
		t.Errorf("EncodedSize = %d, want %d", got, m.EncodedSize())
	}
}

func TestSimEndpoint(t *testing.T) {
	sim := vtime.NewSim(vtime.Config{Links: vtime.ConstantDelay(time.Millisecond)})
	var eps [2]*SimEndpoint
	var recvAt vtime.Time
	sim.Spawn(func(p *vtime.Proc) {
		ep := eps[0]
		ep.Compute(time.Millisecond)
		if err := ep.Send(1, &wire.Msg{Kind: wire.KindData, Stamp: 3}); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	sim.Spawn(func(p *vtime.Proc) {
		ep := eps[1]
		m, err := ep.Recv()
		if err != nil {
			t.Errorf("Recv: %v", err)
			return
		}
		if m.Stamp != 3 || m.Src != 0 {
			t.Errorf("got %+v", m)
		}
		recvAt = ep.Now()
	})
	eps[0] = NewSimEndpoint(sim.Proc(0), 2, FixedSize(2048))
	eps[1] = NewSimEndpoint(sim.Proc(1), 2, FixedSize(2048))
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if recvAt != 2*time.Millisecond {
		t.Errorf("receive time = %v, want 2ms (1ms compute + 1ms delay)", recvAt)
	}
}

func TestSimEndpointClosed(t *testing.T) {
	sim := vtime.NewSim(vtime.Config{})
	var ep *SimEndpoint
	sim.Spawn(func(p *vtime.Proc) {
		if err := ep.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := ep.Send(0, &wire.Msg{Kind: wire.KindSync}); !errors.Is(err, ErrClosed) {
			t.Errorf("Send after close = %v", err)
		}
		if _, err := ep.Recv(); !errors.Is(err, ErrClosed) {
			t.Errorf("Recv after close = %v", err)
		}
	})
	ep = NewSimEndpoint(sim.Proc(0), 1, nil)
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// listenLoopback is ListenLoopback for a test: a listener no endpoint took
// is closed at cleanup.
func listenLoopback(t *testing.T, n int) ([]net.Listener, []string) {
	t.Helper()
	lns, addrs, err := ListenLoopback(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, ln := range lns {
			ln.Close()
		}
	})
	return lns, addrs
}

func startTCPMesh(t *testing.T, n int) []*TCPEndpoint {
	t.Helper()
	lns, addrs := listenLoopback(t, n)
	eps := make([]*TCPEndpoint, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			eps[i], errs[i] = DialTCPConfig(i, addrs, TCPConfig{Listener: lns[i]})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("DialTCP(%d): %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	})
	return eps
}

func TestTCPMesh(t *testing.T) {
	eps := startTCPMesh(t, 3)

	// Every node sends one message to every other node.
	for i, ep := range eps {
		for j := range eps {
			if i == j {
				continue
			}
			m := &wire.Msg{Kind: wire.KindData, Stamp: int64(100*i + j), Payload: []byte(fmt.Sprintf("%d->%d", i, j))}
			if err := ep.Send(j, m); err != nil {
				t.Fatalf("Send %d->%d: %v", i, j, err)
			}
		}
	}
	for j, ep := range eps {
		seen := map[int32]bool{}
		for k := 0; k < len(eps)-1; k++ {
			m, err := ep.Recv()
			if err != nil {
				t.Fatalf("Recv at %d: %v", j, err)
			}
			if seen[m.Src] {
				t.Errorf("node %d got duplicate from %d", j, m.Src)
			}
			seen[m.Src] = true
			if want := int64(100*int(m.Src) + j); m.Stamp != want {
				t.Errorf("node %d: stamp %d, want %d", j, m.Stamp, want)
			}
		}
	}
}

// TestDialTCPHonoursDialTimeout: the zero-config mesh's accept side is
// bounded by DialTimeout too — node 0 of 2 gives up on a peer that never
// starts, and on one that connects but never says hello, instead of
// waiting forever. A watchdog fails the test rather than letting it hang.
func TestDialTCPHonoursDialTimeout(t *testing.T) {
	dial := func(t *testing.T, lns []net.Listener, addrs []string) {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			ep, err := DialTCPConfig(0, addrs, TCPConfig{DialTimeout: 200 * time.Millisecond, Listener: lns[0]})
			if ep != nil {
				ep.Close()
			}
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("DialTCPConfig succeeded without its peer")
			}
		case <-time.After(time.Second):
			t.Fatal("DialTCPConfig still waiting 1s into a 200ms dial timeout")
		}
	}
	t.Run("peer never starts", func(t *testing.T) {
		lns, addrs := listenLoopback(t, 2)
		dial(t, lns, addrs)
	})
	t.Run("peer never says hello", func(t *testing.T) {
		lns, addrs := listenLoopback(t, 2)
		silent := make(chan net.Conn, 1)
		go func() {
			for end := time.Now().Add(time.Second); time.Now().Before(end); time.Sleep(5 * time.Millisecond) {
				if conn, err := net.Dial("tcp", addrs[0]); err == nil {
					silent <- conn
					return
				}
			}
			close(silent)
		}()
		dial(t, lns, addrs)
		if conn, ok := <-silent; ok {
			conn.Close()
		} else {
			t.Fatal("the silent peer never connected")
		}
	})
}

func TestTCPFIFOAndVolume(t *testing.T) {
	eps := startTCPMesh(t, 2)
	const count = 500
	go func() {
		for i := 0; i < count; i++ {
			m := &wire.Msg{Kind: wire.KindData, Stamp: int64(i), Payload: make([]byte, 512)}
			if err := eps[0].Send(1, m); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
		}
	}()
	for i := 0; i < count; i++ {
		m, err := eps[1].Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if m.Stamp != int64(i) {
			t.Fatalf("out of order: got %d want %d", m.Stamp, i)
		}
		if len(m.Payload) != 512 {
			t.Fatalf("payload length %d", len(m.Payload))
		}
	}
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	eps := startTCPMesh(t, 2)
	done := make(chan error, 1)
	go func() {
		_, err := eps[0].Recv()
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	eps[0].Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("Recv after close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock")
	}
}

func TestTCPSendErrors(t *testing.T) {
	eps := startTCPMesh(t, 2)
	if err := eps[0].Send(0, &wire.Msg{Kind: wire.KindSync}); err == nil {
		t.Error("Send to self should error")
	}
	if err := eps[0].Send(5, &wire.Msg{Kind: wire.KindSync}); err == nil {
		t.Error("Send to out-of-range peer should error")
	}
	eps[0].Close()
	if err := eps[0].Send(1, &wire.Msg{Kind: wire.KindSync}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close = %v, want ErrClosed", err)
	}
}

// TestTCPBrokenLinkIsFinalWithoutReconnect pins the fail-stop contract of a
// zero-config link, which the runtime's failure detector relies on. A peer
// that dies without announcing DONE is gone at once — not after a
// reconnect grace — and Send to it fails with ErrPeerGone; nobody redials
// its address. A peer that announced DONE and then hung up departed: it is
// never gone, and Send to it is silently dropped.
func TestTCPBrokenLinkIsFinalWithoutReconnect(t *testing.T) {
	eps := tcpMesh(t, 3, TCPConfig{CloseGrace: 200 * time.Millisecond})
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()

	// Node 2 finishes: DONE to node 1, then it hangs up.
	if err := eps[2].Send(1, &wire.Msg{Kind: wire.KindDone}); err != nil {
		t.Fatal(err)
	}
	if m, err := eps[1].Recv(); err != nil || m.Kind != wire.KindDone {
		t.Fatalf("node 1 received %v (%v), want DONE", m, err)
	}
	eps[2].Close()

	// Node 0 dies: no DONE, every socket cut.
	victim := eps[0].addrs[0]
	eps[0].Abort()
	deadline := time.Now().Add(time.Second)
	for !eps[1].PeerGone(0) {
		if time.Now().After(deadline) {
			t.Fatal("a peer that died without DONE was not gone within 1s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := eps[1].Send(0, &wire.Msg{Kind: wire.KindSync}); !errors.Is(err, ErrPeerGone) {
		t.Fatalf("send to the dead peer: err = %v, want ErrPeerGone", err)
	}

	// Node 1 dialed node 0 at set-up; a resumable link would dial it again.
	ln, err := net.Listen("tcp", victim)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	_ = ln.(*net.TCPListener).SetDeadline(time.Now().Add(300 * time.Millisecond))
	if conn, err := ln.Accept(); err == nil {
		conn.Close()
		t.Fatal("the dead peer's address was redialed")
	}

	for i := 0; i < 5; i++ {
		if eps[1].PeerGone(2) {
			t.Fatal("a peer that announced DONE was reported gone")
		}
		if err := eps[1].Send(2, &wire.Msg{Kind: wire.KindSync}); err != nil {
			t.Fatalf("send %d to the departed peer: %v, want nil", i, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPPiggybackedDoneIsADeparture: a runtime's last frame to a peer
// usually carries its DONE on a DATA frame (wire.ModeDonePiggyback, the
// frame rule), and that announces the departure as a bare DONE does: the
// hang-up after it never makes the peer gone, on a zero-config link or a
// resumable one whose reconnect grace has long run out.
func TestTCPPiggybackedDoneIsADeparture(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  TCPConfig
	}{
		{"final", TCPConfig{CloseGrace: 100 * time.Millisecond}},
		{"resumable", TCPConfig{Reconnect: true, ReconnectGrace: 20 * time.Millisecond, CloseGrace: 100 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eps := tcpMesh(t, 2, tc.cfg)
			defer eps[0].Close()
			last := &wire.Msg{Kind: wire.KindData, Mode: wire.ModeDonePiggyback, Stamp: 9}
			if err := eps[1].Send(0, last); err != nil {
				t.Fatal(err)
			}
			if m, err := eps[0].Recv(); err != nil || m.Mode&wire.ModeDonePiggyback == 0 {
				t.Fatalf("node 0 received %v (%v), want the DATA frame carrying DONE", m, err)
			}
			eps[1].Close()
			for i := 0; i < 10; i++ {
				if eps[0].PeerGone(1) {
					t.Fatal("a peer whose last frame carried its DONE was reported gone")
				}
				if err := eps[0].Send(1, &wire.Msg{Kind: wire.KindSync}); err != nil {
					t.Fatalf("send %d to the departed peer: %v, want nil", i, err)
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}

// TestTCPCleanHangUpWithoutDoneIsFinal: on a zero-config link a peer that
// closes its sockets cleanly (FIN, not RST) without ever announcing DONE
// has stopped without finishing, which the fail-stop model calls a crash:
// it is gone as soon as the hang-up is read, and Send to it fails with
// ErrPeerGone — the first Send, not one after a write to the dead socket
// has failed.
func TestTCPCleanHangUpWithoutDoneIsFinal(t *testing.T) {
	eps := tcpMesh(t, 2, TCPConfig{CloseGrace: 200 * time.Millisecond})
	defer eps[0].Close()
	eps[1].Close()
	deadline := time.Now().Add(time.Second)
	for !eps[0].PeerGone(1) {
		if time.Now().After(deadline) {
			t.Fatal("a peer that hung up without DONE was not gone within 1s")
		}
		time.Sleep(time.Millisecond)
	}
	if err := eps[0].Send(1, &wire.Msg{Kind: wire.KindSync}); !errors.Is(err, ErrPeerGone) {
		t.Fatalf("send to the peer that hung up: err = %v, want ErrPeerGone", err)
	}
}

// TestTCPSilentConnectionDoesNotStallShutdown: the accept loop serves for
// the endpoint's whole life, and a connection that never sends its hello —
// a late or duplicate dial, a port probe — would hold the endpoint's
// shutdown for the handshake deadline (DialTimeout, 10 s by default) if
// shutdown waited for its handshake. Shutdown cuts it instead, so Abort
// (the SIGKILL stand-in) and Close return at once.
func TestTCPSilentConnectionDoesNotStallShutdown(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  TCPConfig
	}{
		{"final", TCPConfig{}},
		{"resumable", TCPConfig{Reconnect: true}},
	} {
		for _, abort := range []bool{true, false} {
			name := tc.name + "/close"
			if abort {
				name = tc.name + "/abort"
			}
			t.Run(name, func(t *testing.T) {
				eps := tcpMesh(t, 2, tc.cfg)
				defer eps[1].Abort()
				conn, err := net.Dial("tcp", eps[0].addrs[0])
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				deadline := time.Now().Add(time.Second)
				for {
					eps[0].mu.Lock()
					waiting := len(eps[0].handshaking)
					eps[0].mu.Unlock()
					if waiting > 0 {
						break
					}
					if time.Now().After(deadline) {
						t.Fatal("the silent connection never reached the handshake")
					}
					time.Sleep(time.Millisecond)
				}
				start := time.Now()
				if abort {
					eps[0].Abort()
				} else {
					eps[1].Abort() // nobody left to wait for: Close returns at once
					eps[0].Close()
				}
				if d := time.Since(start); d > 100*time.Millisecond {
					t.Fatalf("shutdown took %v with a silent connection open, want well under the %v handshake deadline",
						d, eps[0].cfg.DialTimeout)
				}
			})
		}
	}
}
