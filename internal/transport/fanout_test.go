package transport

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"sdso/internal/vtime"
	"sdso/internal/wire"
)

// errEndpoint is a minimal Endpoint (no MultiSender) whose sends to one
// destination fail, for exercising the generic fallback paths.
type errEndpoint struct {
	id, n    int
	failDst  int
	sent     map[int][]*wire.Msg
	sendErrs int
}

func newErrEndpoint(id, n, failDst int) *errEndpoint {
	return &errEndpoint{id: id, n: n, failDst: failDst, sent: make(map[int][]*wire.Msg)}
}

func (e *errEndpoint) ID() int { return e.id }
func (e *errEndpoint) N() int  { return e.n }
func (e *errEndpoint) Send(to int, m *wire.Msg) error {
	if to == e.failDst {
		e.sendErrs++
		return ErrPeerGone
	}
	m.Src, m.Dst = int32(e.id), int32(to)
	e.sent[to] = append(e.sent[to], m)
	return nil
}
func (e *errEndpoint) Recv() (*wire.Msg, error)          { return nil, ErrClosed }
func (e *errEndpoint) TryRecv() (*wire.Msg, bool, error) { return nil, false, nil }
func (e *errEndpoint) RecvTimeout(time.Duration) (*wire.Msg, bool, error) {
	return nil, false, nil
}
func (e *errEndpoint) Now() time.Duration    { return 0 }
func (e *errEndpoint) Compute(time.Duration) {}
func (e *errEndpoint) Close() error          { return nil }

// Broadcast must be best-effort: a dead peer mid-iteration no longer
// starves the later destinations, and the failure still surfaces, joined.
func TestBroadcastBestEffort(t *testing.T) {
	ep := newErrEndpoint(0, 5, 2)
	err := Broadcast(ep, &wire.Msg{Kind: wire.KindSync, Stamp: 7})
	if !errors.Is(err, ErrPeerGone) {
		t.Fatalf("Broadcast error = %v, want ErrPeerGone joined in", err)
	}
	for _, to := range []int{1, 3, 4} {
		got := ep.sent[to]
		if len(got) != 1 || got[0].Stamp != 7 {
			t.Errorf("destination %d got %v, want the stamp-7 broadcast", to, got)
		}
	}
	if len(ep.sent[2]) != 0 || ep.sendErrs != 1 {
		t.Errorf("failing destination: sent=%v errs=%d", ep.sent[2], ep.sendErrs)
	}
}

// The generic SendMany fallback must clone per destination — receivers of
// an eager transport must never share one mutable Msg.
func TestSendManyFallbackClones(t *testing.T) {
	ep := newErrEndpoint(0, 4, -1)
	m := &wire.Msg{Kind: wire.KindData, Stamp: 3, Payload: []byte("p")}
	if err := SendMany(ep, []int{1, 2, 3}, m); err != nil {
		t.Fatalf("SendMany: %v", err)
	}
	seen := map[*wire.Msg]bool{m: true}
	for _, to := range []int{1, 2, 3} {
		got := ep.sent[to]
		if len(got) != 1 {
			t.Fatalf("destination %d got %d messages", to, len(got))
		}
		if seen[got[0]] {
			t.Fatalf("destination %d received a shared Msg pointer", to)
		}
		seen[got[0]] = true
	}
}

// One fanout over a MultiSender transport must marshal the message exactly
// once, however many destinations it reaches.
func TestSendManyEncodeOnce(t *testing.T) {
	n := NewMemNetwork(16)
	defer n.Close()
	ep := n.Endpoint(0)
	dsts := make([]int, 0, 15)
	for i := 1; i < 16; i++ {
		dsts = append(dsts, i)
	}
	m := &wire.Msg{Kind: wire.KindData, Stamp: 11, Ints: []int64{1, 2}, Payload: []byte("fanout payload")}
	before := wire.EncodeCalls()
	if err := SendMany(ep, dsts, m); err != nil {
		t.Fatalf("SendMany: %v", err)
	}
	if d := wire.EncodeCalls() - before; d != 1 {
		t.Fatalf("fanout to %d peers performed %d encodes, want exactly 1", len(dsts), d)
	}
	for _, to := range dsts {
		got, err := n.Endpoint(to).Recv()
		if err != nil {
			t.Fatalf("Recv at %d: %v", to, err)
		}
		if got.Src != 0 || got.Dst != int32(to) || got.Stamp != 11 ||
			!bytes.Equal(got.Payload, m.Payload) || len(got.Ints) != 2 {
			t.Errorf("endpoint %d got %v", to, got)
		}
	}
}

// Receivers of a shared encoding must each own a private copy: mutating
// one receiver's message must not leak into another's.
func TestSendManyCopyOnRead(t *testing.T) {
	n := NewMemNetwork(3)
	defer n.Close()
	m := &wire.Msg{Kind: wire.KindData, Stamp: 2, Payload: []byte("shared")}
	if err := SendMany(n.Endpoint(0), []int{1, 2}, m); err != nil {
		t.Fatalf("SendMany: %v", err)
	}
	m1, err := n.Endpoint(1).Recv()
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.Payload {
		m1.Payload[i] = 'X'
	}
	m1.Ints = append(m1.Ints, 99)
	m2, err := n.Endpoint(2).Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m2.Payload, []byte("shared")) || len(m2.Ints) != 0 {
		t.Fatalf("receiver 2 observed receiver 1's mutations: %v", m2)
	}
}

// The simulated transport's SendMany must deliver per-link copies too,
// with routing set from the simulator's delivery record.
func TestSimSendMany(t *testing.T) {
	sim := vtime.NewSim(vtime.Config{Links: vtime.ConstantDelay(time.Millisecond)})
	got := make([][]*wire.Msg, 3)
	sim.Spawn(func(p *vtime.Proc) {
		ep := NewSimEndpoint(p, 3, FixedSize(2048))
		before := wire.EncodeCalls()
		for round := 0; round < 2; round++ {
			m := &wire.Msg{Kind: wire.KindData, Stamp: int64(round), Payload: []byte{byte(round)}}
			if err := SendMany(ep, []int{1, 2}, m); err != nil {
				t.Errorf("SendMany: %v", err)
			}
		}
		if d := wire.EncodeCalls() - before; d != 2 {
			t.Errorf("2 fanouts performed %d encodes, want 2", d)
		}
	})
	for i := 1; i < 3; i++ {
		i := i
		sim.Spawn(func(p *vtime.Proc) {
			ep := NewSimEndpoint(p, 3, FixedSize(2048))
			for len(got[i]) < 2 {
				m, err := ep.Recv()
				if err != nil {
					return
				}
				got[i] = append(got[i], m)
			}
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 1; i < 3; i++ {
		if len(got[i]) != 2 {
			t.Fatalf("proc %d received %d messages, want 2", i, len(got[i]))
		}
		for round, m := range got[i] {
			if m.Src != 0 || m.Dst != int32(i) || m.Stamp != int64(round) {
				t.Errorf("proc %d round %d got %v", i, round, m)
			}
		}
	}
}

// TCP deferred flushing: with a large FlushThreshold frames stay in the
// per-peer write buffer until the Flush barrier, then all arrive.
func TestTCPDeferredFlushBarrier(t *testing.T) {
	eps := tcpPair(t, TCPConfig{FlushThreshold: 1 << 20})
	defer eps[0].Close()
	defer eps[1].Close()
	for i := 0; i < 5; i++ {
		if err := eps[0].Send(1, &wire.Msg{Kind: wire.KindData, Stamp: int64(i)}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if m, ok, err := eps[1].RecvTimeout(100 * time.Millisecond); ok || err != nil {
		t.Fatalf("frame leaked past the deferred-flush buffer: %v %v", m, err)
	}
	if err := Flush(eps[0]); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i := 0; i < 5; i++ {
		m, err := eps[1].Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if m.Stamp != int64(i) {
			t.Fatalf("out of order after flush: got %d want %d", m.Stamp, i)
		}
	}
}

// TCP SendMany: one encode, frames for every destination, delivered after
// the barrier.
func TestTCPSendManyEncodeOnce(t *testing.T) {
	eps := tcpMesh(t, 4, TCPConfig{FlushThreshold: 1 << 20})
	for _, ep := range eps {
		defer ep.Close()
	}
	m := &wire.Msg{Kind: wire.KindData, Stamp: 5, Payload: []byte("tcp fanout")}
	before := wire.EncodeCalls()
	if err := SendMany(eps[0], []int{1, 2, 3}, m); err != nil {
		t.Fatalf("SendMany: %v", err)
	}
	if d := wire.EncodeCalls() - before; d != 1 {
		t.Fatalf("TCP fanout to 3 peers performed %d encodes, want exactly 1", d)
	}
	if err := Flush(eps[0]); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for i := 1; i < 4; i++ {
		got, err := eps[i].Recv()
		if err != nil {
			t.Fatalf("Recv at %d: %v", i, err)
		}
		if got.Src != 0 || got.Dst != int32(i) || got.Stamp != 5 || !bytes.Equal(got.Payload, m.Payload) {
			t.Errorf("node %d got %v", i, got)
		}
	}
}

// Messages decoded by the TCP read loop must not alias pooled frame
// scratch or each other: earlier deliveries stay intact while later frames
// arrive, and a recycled message's slot is safely reused for new frames.
func TestTCPRecycleAliasing(t *testing.T) {
	eps := tcpPair(t, TCPConfig{})
	defer eps[0].Close()
	defer eps[1].Close()
	payloads := [][]byte{[]byte("first message payload"), []byte("second"), []byte("third, longer than both before it")}
	for i, p := range payloads {
		if err := eps[0].Send(1, &wire.Msg{Kind: wire.KindData, Stamp: int64(i), Payload: p}); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	m0, err := eps[1].Recv()
	if err != nil {
		t.Fatal(err)
	}
	m1, err := eps[1].Recv()
	if err != nil {
		t.Fatal(err)
	}
	// m0 must survive the arrival and decode of later frames untouched.
	if m0.Stamp != 0 || !bytes.Equal(m0.Payload, payloads[0]) {
		t.Fatalf("first delivery corrupted by later frames: %v", m0)
	}
	// Hand m0 back; its struct may be reused for the next decode, which
	// must not disturb m1.
	Recycle(eps[1], m0)
	m2, err := eps[1].Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m1.Stamp != 1 || !bytes.Equal(m1.Payload, payloads[1]) {
		t.Fatalf("second delivery corrupted after recycling the first: %v", m1)
	}
	if m2.Stamp != 2 || !bytes.Equal(m2.Payload, payloads[2]) {
		t.Fatalf("third delivery wrong: %v", m2)
	}
	Recycle(eps[1], m1)
	Recycle(eps[1], m2)
}

// The in-memory endpoint's half of the message rule: a plain Send hands the
// receiver the sender's very struct, a SendMany delivery is a private
// decode, and Recycle takes either back — struct and Payload — while the
// beacon the receiver kept stays intact.
func TestMemRecycle(t *testing.T) {
	net := NewMemNetwork(3)
	defer net.Close()
	beacon := []int64{4, 2}
	sent := wire.GetMsg()
	sent.Kind, sent.Stamp, sent.Ints = wire.KindData, 7, beacon
	sent.Payload = append(sent.Payload[:0], "given away"...)
	if err := net.Endpoint(0).Send(1, sent); err != nil {
		t.Fatal(err)
	}
	got, err := net.Endpoint(1).Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got != sent {
		t.Fatal("plain Send delivered a copy, not the struct that was given away")
	}
	kept := got.Ints
	Recycle(net.Endpoint(1), got)
	if got.Ints != nil || got.Kind != 0 || len(got.Payload) != 0 {
		t.Fatalf("recycled struct not reset for its next life: %v ints=%v", got, got.Ints)
	}
	if !slices.Equal(kept, []int64{4, 2}) {
		t.Fatalf("beacon kept past Recycle = %v", kept)
	}

	many := &wire.Msg{Kind: wire.KindSync, Stamp: 8, Ints: beacon}
	if err := SendMany(net.Endpoint(0), []int{1, 2}, many); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1, 2} {
		got, err := net.Endpoint(id).Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got == many || got.Src != 0 || got.Dst != int32(id) || got.Stamp != 8 || !slices.Equal(got.Ints, beacon) {
			t.Fatalf("SendMany delivery at %d = %v ints=%v (private copy: %v)", id, got, got.Ints, got != many)
		}
		Recycle(net.Endpoint(id), got)
	}
	if many.Stamp != 8 || !slices.Equal(many.Ints, beacon) {
		t.Fatalf("SendMany consumed the caller's message: %v", many)
	}
}

// tcpPair dials a 2-node loopback mesh with the given config.
func tcpPair(t *testing.T, cfg TCPConfig) [2]*TCPEndpoint {
	t.Helper()
	eps := tcpMesh(t, 2, cfg)
	return [2]*TCPEndpoint{eps[0], eps[1]}
}

// tcpMesh dials an n-node loopback mesh with the given config.
func tcpMesh(t *testing.T, n int, cfg TCPConfig) []*TCPEndpoint {
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
			cfg := cfg
			cfg.Listener = lns[i]
			eps[i], errs[i] = DialTCPConfig(i, addrs, cfg)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("DialTCPConfig(%d): %v", i, err)
		}
	}
	return eps
}
