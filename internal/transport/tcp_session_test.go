package transport

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"sdso/internal/metrics"
	"sdso/internal/wire"
)

// startResilientPair brings up a 2-node resilient mesh, one collector per
// endpoint, and registers cleanup. mutate, when non-nil, adjusts the config
// per node before dialing.
func startResilientPair(t *testing.T, mutate func(id int, cfg *TCPConfig)) ([]*TCPEndpoint, []*metrics.Collector) {
	t.Helper()
	addrs := freeAddrs(t, 2)
	eps := make([]*TCPEndpoint, 2)
	mcs := make([]*metrics.Collector, 2)
	errs := make([]error, 2)
	done := make(chan int, 2)
	for id := 0; id < 2; id++ {
		mcs[id] = metrics.NewCollector()
		cfg := TCPConfig{
			Reconnect:   true,
			BackoffBase: 2 * time.Millisecond,
			BackoffMax:  20 * time.Millisecond,
			CloseGrace:  200 * time.Millisecond,
			Metrics:     mcs[id],
			Incarnation: 1,
		}
		if mutate != nil {
			mutate(id, &cfg)
		}
		go func(id int, cfg TCPConfig) {
			eps[id], errs[id] = DialTCPConfig(id, addrs, cfg)
			done <- id
		}(id, cfg)
	}
	for i := 0; i < 2; i++ {
		<-done
	}
	for id, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", id, err)
		}
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Abort()
			}
		}
	})
	return eps, mcs
}

// awaitStamp drains ep until a KindData frame with the wanted stamp arrives.
func awaitStamp(t *testing.T, ep *TCPEndpoint, stamp int64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		m, ok, err := ep.RecvTimeout(50 * time.Millisecond)
		if err != nil {
			t.Fatalf("recv waiting for stamp %d: %v", stamp, err)
		}
		if ok {
			got := m.Kind == wire.KindData && m.Stamp == stamp
			ep.Recycle(m)
			if got {
				return
			}
		}
	}
	t.Fatalf("stamp %d never delivered within %v", stamp, timeout)
}

// currentConn snapshots the socket installed for peer `to`.
func currentConn(ep *TCPEndpoint, to int) net.Conn {
	p := ep.peers[to]
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn
}

func TestSessionReconnectResumesTraffic(t *testing.T) {
	eps, mcs := startResilientPair(t, nil)

	if err := eps[1].Send(0, &wire.Msg{Kind: wire.KindData, Stamp: 1}); err != nil {
		t.Fatal(err)
	}
	awaitStamp(t, eps[0], 1, 2*time.Second)

	// Cut the socket underneath node 1 with an RST, as a mid-run network
	// fault would.
	conn := currentConn(eps[1], 0)
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = conn.Close()

	// Traffic resumes once the higher-id side redials: keep sending fresh
	// stamps until one lands.
	deadline := time.Now().Add(5 * time.Second)
	stamp := int64(100)
	for {
		if time.Now().After(deadline) {
			t.Fatal("traffic never resumed after the socket was cut")
		}
		if err := eps[1].Send(0, &wire.Msg{Kind: wire.KindData, Stamp: stamp}); err != nil {
			t.Fatalf("send after cut: %v", err)
		}
		m, ok, err := eps[0].RecvTimeout(100 * time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			got := m.Kind == wire.KindData
			eps[0].Recycle(m)
			if got {
				break
			}
		}
		stamp++
	}
	if mcs[1].Snapshot().Reconnects == 0 {
		t.Fatal("redialing side recorded no reconnect")
	}
}

// TestSessionResumeReplaysUnackedFrames is the session-resumption contract:
// a connection kill mid-stream loses no frame and duplicates no frame. The
// sender retains written-but-unacked frames; the resumption handshake
// advertises the receiver's count; the retained tail is replayed.
func TestSessionResumeReplaysUnackedFrames(t *testing.T) {
	eps, mcs := startResilientPair(t, nil)
	const total = 300
	const killAt = 100

	seen := make(map[int64]int, total)
	recvSome := func(want int) {
		t.Helper()
		deadline := time.Now().Add(15 * time.Second)
		for len(seen) < want {
			if time.Now().After(deadline) {
				t.Fatalf("only %d/%d distinct stamps delivered", len(seen), want)
			}
			m, ok, err := eps[0].RecvTimeout(100 * time.Millisecond)
			if err != nil {
				t.Fatalf("recv: %v", err)
			}
			if !ok {
				continue
			}
			if m.Kind == wire.KindData {
				seen[m.Stamp]++
			}
			eps[0].Recycle(m)
		}
	}

	for s := int64(1); s <= killAt; s++ {
		if err := eps[1].Send(0, &wire.Msg{Kind: wire.KindData, Stamp: s}); err != nil {
			t.Fatalf("send %d: %v", s, err)
		}
	}
	recvSome(killAt)

	// RST the receiver's socket: the sender's next writes land in a link
	// that can no longer deliver, so they are either retained (written,
	// lost in flight) or requeued (write error) — all must be replayed
	// over the redialed connection.
	if conn := currentConn(eps[0], 1); conn != nil {
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetLinger(0)
		}
		_ = conn.Close()
	}
	for s := int64(killAt + 1); s <= total; s++ {
		if err := eps[1].Send(0, &wire.Msg{Kind: wire.KindData, Stamp: s}); err != nil {
			t.Fatalf("send %d after cut: %v", s, err)
		}
	}
	recvSome(total)
	for s := int64(1); s <= total; s++ {
		if n := seen[s]; n != 1 {
			t.Fatalf("stamp %d delivered %d times; resumption must be exactly-once", s, n)
		}
	}
	if mcs[1].Snapshot().Reconnects == 0 {
		t.Fatal("no reconnect recorded; the kill never exercised resumption")
	}
}

func TestSessionRestartWithHigherIncarnationRejoins(t *testing.T) {
	grace := 150 * time.Millisecond
	eps, mcs := startResilientPair(t, func(id int, cfg *TCPConfig) {
		cfg.ReconnectGrace = grace
	})

	if err := eps[0].Send(1, &wire.Msg{Kind: wire.KindData, Stamp: 7}); err != nil {
		t.Fatal(err)
	}
	awaitStamp(t, eps[1], 7, 2*time.Second)

	// Node 1 dies abruptly (in-process SIGKILL): listener gone, sockets RST.
	addrs := append([]string(nil), eps[1].addrs...)
	eps[1].Abort()

	// Node 0 cannot redial (it is the accept side of the link), so the
	// grace expires and the peer is declared gone.
	deadline := time.Now().Add(3 * time.Second)
	for !eps[0].PeerGone(1) {
		if time.Now().After(deadline) {
			t.Fatal("PeerGone(1) never became true after the peer died")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := eps[0].Send(1, &wire.Msg{Kind: wire.KindData, Stamp: 8}); !errors.Is(err, ErrPeerGone) {
		t.Fatalf("send to gone peer: err = %v, want ErrPeerGone", err)
	}

	// The process restarts with a higher incarnation on the same address;
	// its startup dial must resurrect the link on node 0's side.
	mc := metrics.NewCollector()
	restarted, err := DialTCPConfig(1, addrs, TCPConfig{
		Reconnect:      true,
		ReconnectGrace: grace,
		BackoffBase:    2 * time.Millisecond,
		BackoffMax:     20 * time.Millisecond,
		Incarnation:    2,
		Metrics:        mc,
	})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Cleanup(restarted.Abort)

	// The accept side writes its hello before it installs the link, so the
	// dialer can return first: poll for the resurrection.
	deadline = time.Now().Add(2 * time.Second)
	for eps[0].PeerGone(1) {
		if time.Now().After(deadline) {
			t.Fatal("PeerGone(1) still true after the restarted peer's handshake")
		}
		time.Sleep(time.Millisecond)
	}
	if err := eps[0].Send(1, &wire.Msg{Kind: wire.KindData, Stamp: 9}); err != nil {
		t.Fatalf("send to resurrected link: %v", err)
	}
	awaitStamp(t, restarted, 9, 2*time.Second)
	if err := restarted.Send(0, &wire.Msg{Kind: wire.KindData, Stamp: 10}); err != nil {
		t.Fatal(err)
	}
	awaitStamp(t, eps[0], 10, 2*time.Second)
	if mcs[0].Snapshot().Reconnects == 0 {
		t.Fatal("survivor recorded no reconnect for the resurrected link")
	}
}

func TestSessionStaleIncarnationRefused(t *testing.T) {
	eps, _ := startResilientPair(t, nil)

	// A connection presenting a lower incarnation than the link has seen
	// must be refused. Raise the recorded incarnation, then replay a stale
	// handshake straight at node 0's listener.
	p := eps[0].peers[1]
	p.mu.Lock()
	p.inc = 5
	p.mu.Unlock()

	conn, err := net.DialTimeout("tcp", eps[0].addrs[0], time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := &wire.Msg{Kind: wire.KindHello, Stamp: 1, Ints: []int64{3, 0}}
	if err := wire.WriteFrame(conn, hello); err != nil {
		t.Fatal(err)
	}
	var reply wire.Msg
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if err := wire.ReadFrame(conn, &reply); err != nil {
		t.Fatalf("handshake reply: %v", err)
	}
	// The acceptor replies before checking staleness (it must, to stay
	// symmetric), but the stale socket is then closed, not adopted: reads
	// hit EOF and the installed link keeps its generation.
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var m wire.Msg
	if err := wire.ReadFrame(conn, &m); err == nil {
		t.Fatal("stale-incarnation socket stayed open")
	}
	if got := currentConn(eps[0], 1); got == nil {
		t.Fatal("installed link was torn down by a stale handshake")
	}
}

// fakeSessionPeer is a hand-rolled peer 0: it accepts node 1's startup dial,
// answers the session handshake, and then misbehaves however the test wants.
type fakeSessionPeer struct {
	ln net.Listener
}

func newFakeSessionPeer(t *testing.T) *fakeSessionPeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return &fakeSessionPeer{ln: ln}
}

// accept completes one session handshake as peer 0 with the given
// incarnation and returns the raw connection.
func (f *fakeSessionPeer) accept(t *testing.T, inc int64) net.Conn {
	t.Helper()
	conn, err := f.ln.Accept()
	if err != nil {
		t.Errorf("fake peer accept: %v", err)
		return nil
	}
	var hello wire.Msg
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := wire.ReadFrame(conn, &hello); err != nil || hello.Kind != wire.KindHello {
		t.Errorf("fake peer handshake read: kind=%v err=%v", hello.Kind, err)
		conn.Close()
		return nil
	}
	_ = conn.SetReadDeadline(time.Time{})
	reply := &wire.Msg{Kind: wire.KindHello, Stamp: 0, Ints: []int64{inc, 0}}
	if err := wire.WriteFrame(conn, reply); err != nil {
		t.Errorf("fake peer handshake write: %v", err)
		conn.Close()
		return nil
	}
	return conn
}

// dialThroughFake starts endpoint 1 of a 2-node mesh whose peer 0 is the
// fake. Both sides of the link get bounded (64 KiB) socket buffers so a
// non-reading fake stalls the endpoint's writer after a couple hundred KB
// instead of after megabytes of kernel buffering — while a reading fake
// still drains megabytes in well under a second (buffers much smaller than
// this interact badly with delayed ACKs and crawl at ~2 KB per 40 ms).
func dialThroughFake(t *testing.T, fake *fakeSessionPeer, cfg TCPConfig) (*TCPEndpoint, net.Conn) {
	t.Helper()
	addrs := []string{fake.ln.Addr().String(), freeAddrs(t, 1)[0]}
	connCh := make(chan net.Conn, 1)
	go func() {
		conn := fake.accept(t, 1)
		if tc, ok := conn.(*net.TCPConn); ok {
			_ = tc.SetReadBuffer(64 << 10)
		}
		connCh <- conn
	}()
	ep, err := DialTCPConfig(1, addrs, cfg)
	if err != nil {
		t.Fatalf("dial through fake: %v", err)
	}
	t.Cleanup(ep.Abort)
	conn := <-connCh
	if conn == nil {
		t.Fatal("fake peer never completed the handshake")
	}
	if tc, ok := currentConn(ep, 0).(*net.TCPConn); ok {
		_ = tc.SetWriteBuffer(64 << 10)
	}
	return ep, conn
}

func TestSessionSendQueueShedsOldestUnderStall(t *testing.T) {
	fake := newFakeSessionPeer(t)
	mc := metrics.NewCollector()
	ep, _ := dialThroughFake(t, fake, TCPConfig{
		Reconnect:       true,
		ReconnectGrace:  10 * time.Second,
		SendQueueFrames: 8,
		SendQueueBytes:  1 << 20,
		SendQueuePolicy: QueueShedOldest,
		CloseGrace:      100 * time.Millisecond,
		Metrics:         mc,
	})

	// The fake never reads: the writer wedges in the kernel once the small
	// socket buffers fill, and the queue must bound at 8 frames with the
	// overflow shed — never a blocked Send.
	payload := make([]byte, 8<<10)
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 100; i++ {
			if err := ep.Send(0, &wire.Msg{Kind: wire.KindSync, Stamp: int64(i), Payload: payload}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("send: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Send blocked under QueueShedOldest against a stalled peer")
	}
	snap := mc.Snapshot()
	if snap.SendQDepthPeak > 8 {
		t.Fatalf("queue depth peaked at %d frames, cap is 8", snap.SendQDepthPeak)
	}
	if snap.SendQShed == 0 {
		t.Fatal("nothing was shed despite 100 frames against an 8-frame cap")
	}
}

func TestSessionSendQueueBlockPolicyAppliesBackpressure(t *testing.T) {
	fake := newFakeSessionPeer(t)
	ep, conn := dialThroughFake(t, fake, TCPConfig{
		Reconnect:       true,
		ReconnectGrace:  10 * time.Second,
		SendQueueFrames: 4,
		SendQueueBytes:  1 << 20,
		SendQueuePolicy: QueueBlock,
		CloseGrace:      100 * time.Millisecond,
	})

	const total = 100
	payload := make([]byte, 8<<10)
	var sent atomic.Int64
	done := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := ep.Send(0, &wire.Msg{Kind: wire.KindData, Stamp: int64(i), Payload: payload}); err != nil {
				done <- err
				return
			}
			sent.Add(1)
		}
		done <- nil
	}()

	// Progress must stop well short of total while the fake stalls: the
	// queue caps at 4 frames and the kernel absorbs only a few more.
	time.Sleep(400 * time.Millisecond)
	c1 := sent.Load()
	time.Sleep(300 * time.Millisecond)
	c2 := sent.Load()
	if c1 != c2 {
		t.Fatalf("sends progressed against a stalled peer (%d -> %d); backpressure is not applied", c1, c2)
	}
	if c2 >= total {
		t.Fatalf("all %d sends completed against a stalled peer", total)
	}

	// Unstall: the fake drains its end and every blocked send completes.
	go func() { _, _ = io.Copy(io.Discard, conn) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("send after unstall: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sends never completed after the peer resumed reading")
	}
}

func TestSessionDrainDeliversQueuedFramesThenFIN(t *testing.T) {
	fake := newFakeSessionPeer(t)
	mc := metrics.NewCollector()
	ep, conn := dialThroughFake(t, fake, TCPConfig{
		Reconnect:      true,
		ReconnectGrace: 10 * time.Second,
		CloseGrace:     10 * time.Second,
		Metrics:        mc,
	})

	// Queue ~1 MiB against the non-reading fake: the small socket buffers
	// hold a few frames, the rest sit in the send queue when Drain begins.
	const frames = 32
	payload := make([]byte, 32<<10)
	for i := 0; i < frames; i++ {
		if err := ep.Send(0, &wire.Msg{Kind: wire.KindData, Stamp: int64(i), Payload: payload}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}

	// The fake resumes reading and counts data frames until the FIN from
	// Drain's half-close surfaces as EOF.
	type result struct {
		got int
		err error
	}
	res := make(chan result, 1)
	go func() {
		n := 0
		for {
			var m wire.Msg
			if err := wire.ReadFrame(conn, &m); err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				res <- result{n, err}
				return
			}
			if m.Kind == wire.KindData {
				n++
			}
		}
	}()

	flushed, err := ep.Drain()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if flushed == 0 {
		t.Fatal("Drain reported zero pending bytes despite a backed-up queue")
	}
	if err := ep.Send(0, &wire.Msg{Kind: wire.KindData, Stamp: 999}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after Drain: err = %v, want ErrClosed", err)
	}
	select {
	case r := <-res:
		if r.err != nil {
			t.Fatalf("fake peer read: %v", r.err)
		}
		if r.got != frames {
			t.Fatalf("fake peer received %d data frames, want all %d", r.got, frames)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fake peer never saw the FIN after Drain")
	}
	if mc.Snapshot().DrainFlushedBytes == 0 {
		t.Fatal("DrainFlushedBytes metric not recorded")
	}
}

func TestSessionHeartbeatTearsDownSilentPeer(t *testing.T) {
	fake := newFakeSessionPeer(t)
	mc := metrics.NewCollector()
	ep, conn := dialThroughFake(t, fake, TCPConfig{
		Reconnect:         true,
		ReconnectGrace:    100 * time.Millisecond,
		BackoffBase:       5 * time.Millisecond,
		BackoffMax:        50 * time.Millisecond,
		HeartbeatInterval: 30 * time.Millisecond,
		HeartbeatMisses:   2,
		CloseGrace:        100 * time.Millisecond,
		Metrics:           mc,
	})

	// The fake reads (so the socket never backs up) but never writes: no
	// pongs, no traffic. After the miss budget the link must be torn down;
	// with the fake's listener closed the redial fails and the grace
	// declares the peer gone.
	var pings atomic.Int64
	go func() {
		for {
			var m wire.Msg
			if err := wire.ReadFrame(conn, &m); err != nil {
				return
			}
			if m.Kind == wire.KindPing {
				pings.Add(1)
			}
		}
	}()
	_ = fake.ln.Close()

	deadline := time.Now().Add(5 * time.Second)
	for !ep.PeerGone(0) {
		if time.Now().After(deadline) {
			t.Fatal("silent peer was never declared gone by the heartbeat monitor")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if pings.Load() == 0 {
		t.Fatal("no PING ever reached the silent peer")
	}
	if mc.Snapshot().HeartbeatsMissed == 0 {
		t.Fatal("HeartbeatsMissed metric not recorded")
	}
	if err := ep.Send(0, &wire.Msg{Kind: wire.KindData}); !errors.Is(err, ErrPeerGone) {
		t.Fatalf("send to heartbeat-evicted peer: err = %v, want ErrPeerGone", err)
	}
}

func TestSessionHeartbeatAnsweredKeepsIdleLinkUp(t *testing.T) {
	eps, mcs := startResilientPair(t, func(id int, cfg *TCPConfig) {
		cfg.HeartbeatInterval = 50 * time.Millisecond
		cfg.HeartbeatMisses = 3
		cfg.ReconnectGrace = 200 * time.Millisecond
	})

	// Idle for many intervals: both sides probe, both answer, nobody is
	// torn down.
	time.Sleep(500 * time.Millisecond)
	for id, ep := range eps {
		if ep.PeerGone(1 - id) {
			t.Fatalf("node %d declared its healthy idle peer gone", id)
		}
	}
	for id, mc := range mcs {
		if mc.Snapshot().Reconnects != 0 {
			t.Fatalf("node %d reconnected on a healthy idle link", id)
		}
	}
	if err := eps[0].Send(1, &wire.Msg{Kind: wire.KindData, Stamp: 42}); err != nil {
		t.Fatal(err)
	}
	awaitStamp(t, eps[1], 42, 2*time.Second)
}

// malformedStreams are the byte sequences a hostile or corrupted peer might
// write after a valid handshake, mirroring the wire fuzz corpus: a length
// prefix promising 4 GiB, a frame with a garbage body, and a truncated
// frame cut mid-body.
var malformedStreams = map[string][]byte{
	"oversized-prefix": {0xff, 0xff, 0xff, 0xff, 1, 2, 3},
	"garbage-body":     garbageBody(),
	"truncated-frame":  {0, 0, 0, 60, 9},
}

// garbageBody is a complete frame (so the reader is not left waiting for
// bytes) whose body is nonsense: the kind byte alone is invalid.
func garbageBody() []byte {
	frame := []byte{0, 0, 0, 40}
	for i := 0; i < 40; i++ {
		frame = append(frame, 0xde)
	}
	return frame
}

func TestSessionMalformedFramesSuspectPeerWithoutPanic(t *testing.T) {
	for name, junk := range malformedStreams {
		t.Run(name, func(t *testing.T) {
			// Node 0 accepts; the fake plays peer 1, handshakes properly,
			// then writes junk. The read loop must down the link (no panic,
			// no wedge), and with nobody redialing the grace declares the
			// peer gone.
			addrs := freeAddrs(t, 2)
			epCh := make(chan *TCPEndpoint, 1)
			errCh := make(chan error, 1)
			go func() {
				ep, err := DialTCPConfig(0, addrs, TCPConfig{
					Reconnect:      true,
					ReconnectGrace: 100 * time.Millisecond,
					CloseGrace:     100 * time.Millisecond,
				})
				epCh <- ep
				errCh <- err
			}()
			var conn net.Conn
			dialDeadline := time.Now().Add(5 * time.Second)
			for conn == nil {
				c, err := net.DialTimeout("tcp", addrs[0], time.Second)
				if err == nil {
					conn = c
				} else if time.Now().After(dialDeadline) {
					t.Fatalf("dial node 0: %v", err)
				}
			}
			defer conn.Close()
			hello := &wire.Msg{Kind: wire.KindHello, Stamp: 1, Ints: []int64{1, 0}}
			if err := wire.WriteFrame(conn, hello); err != nil {
				t.Fatal(err)
			}
			var reply wire.Msg
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if err := wire.ReadFrame(conn, &reply); err != nil {
				t.Fatalf("handshake reply: %v", err)
			}
			ep := <-epCh
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
			defer ep.Abort()

			if _, err := conn.Write(junk); err != nil {
				t.Fatal(err)
			}
			if name == "truncated-frame" {
				_ = conn.Close() // cut mid-body: the reader sees unexpected EOF
			}
			deadline := time.Now().Add(5 * time.Second)
			for !ep.PeerGone(1) {
				if time.Now().After(deadline) {
					t.Fatal("malformed stream never led to the peer being suspected")
				}
				time.Sleep(10 * time.Millisecond)
			}
			if err := ep.Send(1, &wire.Msg{Kind: wire.KindData}); !errors.Is(err, ErrPeerGone) {
				t.Fatalf("send after malformed stream: err = %v, want ErrPeerGone", err)
			}
		})
	}
}

func TestLegacyMalformedFramesSuspectPeerWithoutPanic(t *testing.T) {
	for name, junk := range malformedStreams {
		t.Run(name, func(t *testing.T) {
			// Same attack against the legacy fixed mesh: the hardened read
			// loop must close the connection and mark the peer dead so the
			// next send reports ErrPeerGone — not stop silently and leave
			// the link half-alive.
			addrs := freeAddrs(t, 2)
			epCh := make(chan *TCPEndpoint, 1)
			errCh := make(chan error, 1)
			go func() {
				ep, err := DialTCPConfig(0, addrs, TCPConfig{})
				epCh <- ep
				errCh <- err
			}()
			var conn net.Conn
			dialDeadline := time.Now().Add(5 * time.Second)
			for conn == nil {
				c, err := net.DialTimeout("tcp", addrs[0], time.Second)
				if err == nil {
					conn = c
				} else if time.Now().After(dialDeadline) {
					t.Fatalf("dial node 0: %v", err)
				}
			}
			defer conn.Close()
			// Legacy handshake is one-way: the dialer announces itself.
			if err := wire.WriteFrame(conn, &wire.Msg{Kind: wire.KindHello, Stamp: 1}); err != nil {
				t.Fatal(err)
			}
			ep := <-epCh
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
			defer ep.Close()

			if _, err := conn.Write(junk); err != nil {
				t.Fatal(err)
			}
			if name == "truncated-frame" {
				_ = conn.Close()
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				err := ep.Send(1, &wire.Msg{Kind: wire.KindData})
				if errors.Is(err, ErrPeerGone) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("legacy mesh never suspected the malformed peer (last send err: %v)", err)
				}
				time.Sleep(10 * time.Millisecond)
			}
			if !ep.PeerGone(1) {
				t.Fatal("PeerGone(1) false after the malformed stream killed the link")
			}
		})
	}
}
