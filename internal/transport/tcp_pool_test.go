package transport

// Tests pinning wire.Encoded refcount balance through the session layer's
// bounded send queue (every dequeue path must Release its frame back to
// the pool) and the adaptive flush controller's threshold dynamics.

import (
	"sync"
	"testing"
	"time"

	"sdso/internal/metrics"
	"sdso/internal/wire"
)

// TestSessionShedStormReleasesFrames storms a stalled peer's bounded queue
// with sheddable SYNC frames and pins pool balance: the shed path must
// release every dropped frame (the latent leak this test exists to catch —
// a shed entry that is merely forgotten keeps its refcount at one
// forever), and dropping the queue must return the remainder.
func TestSessionShedStormReleasesFrames(t *testing.T) {
	base := wire.LiveFrames()
	mc := metrics.NewCollector()
	e := &TCPEndpoint{
		id: 0, n: 2,
		cfg: TCPConfig{
			Reconnect:       true,
			SendQueueFrames: 8,
			SendQueuePolicy: QueueShedOldest,
			Metrics:         mc,
		}.withDefaults(),
		done: make(chan struct{}),
	}
	// A bare peer with no socket and no writer: nothing drains the queue,
	// so every enqueue past the cap must shed.
	p := &tcpPeer{id: 1}
	p.cond = sync.NewCond(&p.mu)

	const storm = 500
	for i := 0; i < storm; i++ {
		enc, err := wire.EncodeFrame(&wire.Msg{Kind: wire.KindSync, Stamp: int64(i)})
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if err := e.enqueue(p, enc, wire.KindSync); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
	}
	if shed, want := mc.Snapshot().SendQShed, storm-8; shed != want {
		t.Fatalf("sheds = %d, want %d", shed, want)
	}
	if got := wire.LiveFrames() - base; got != 8 {
		t.Fatalf("live frames after shed storm = %d, want 8 (the queued tail); shed frames leaked", got)
	}
	p.mu.Lock()
	p.dropQueueLocked()
	p.mu.Unlock()
	if got := wire.LiveFrames() - base; got != 0 {
		t.Fatalf("live frames after queue drop = %d, want 0", got)
	}
}

// TestSessionCloseReleasesRetainedFrames runs real traffic through a
// resilient pair and verifies shutdown returns every queued and retained
// (written-but-unacked) frame to the pool.
func TestSessionCloseReleasesRetainedFrames(t *testing.T) {
	base := wire.LiveFrames()
	eps, _ := startResilientPair(t, func(id int, cfg *TCPConfig) {
		cfg.CloseGrace = 100 * time.Millisecond
	})
	// 40 frames crosses one sessionAckEvery boundary but not two, so some
	// frames are acked-and-released live while a tail is still retained
	// when Close runs.
	for i := 0; i < 40; i++ {
		if err := eps[0].Send(1, &wire.Msg{Kind: wire.KindData, Stamp: int64(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	awaitStamp(t, eps[1], 39, 2*time.Second)
	if err := eps[0].Close(); err != nil {
		t.Fatalf("close 0: %v", err)
	}
	if err := eps[1].Close(); err != nil {
		t.Fatalf("close 1: %v", err)
	}
	if got := wire.LiveFrames() - base; got != 0 {
		t.Fatalf("live frames after close = %d, want 0 (queued or retained frames leaked)", got)
	}
}

// TestAdaptiveFlushThresholdTracksTraffic drives the legacy mesh's
// adaptive flush controller through both transitions: sends dense enough
// to cross the threshold double it, and barrier flushes that find the
// buffers nearly empty halve it back, with the current value exported
// through the FlushThresholdCurrent gauge.
func TestAdaptiveFlushThresholdTracksTraffic(t *testing.T) {
	lns, addrs := listenLoopback(t, 2)
	mc := metrics.NewCollector()
	eps := make([]*TCPEndpoint, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		cfg := TCPConfig{FlushThreshold: 1024, AdaptiveFlush: true,
			CloseGrace: 100 * time.Millisecond, Listener: lns[i]}
		if i == 0 {
			cfg.Metrics = mc
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			eps[i], errs[i] = DialTCPConfig(i, addrs, cfg)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			if ep != nil {
				ep.Close()
			}
		}
	})

	if got := eps[0].flushThreshold(); got != 1024 {
		t.Fatalf("initial threshold = %d, want 1024", got)
	}
	// Dense phase: each send stages ~600B, so every second send crosses
	// the 1KiB threshold and the controller doubles it toward the cap.
	payload := make([]byte, 600)
	for i := 0; i < 64; i++ {
		if err := eps[0].Send(1, &wire.Msg{Kind: wire.KindData, Stamp: int64(i), Payload: payload}); err != nil {
			t.Fatalf("dense send %d: %v", i, err)
		}
	}
	raised := eps[0].flushThreshold()
	if raised <= 1024 {
		t.Fatalf("threshold after dense phase = %d, want > 1024", raised)
	}
	if raised > adaptiveFlushMax {
		t.Fatalf("threshold after dense phase = %d, exceeds cap %d", raised, adaptiveFlushMax)
	}
	if got := mc.Snapshot().FlushThresholdCurrent; got != raised {
		t.Fatalf("FlushThresholdCurrent gauge = %d, want %d", got, raised)
	}
	if err := eps[0].Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// Light phase: one small frame per barrier leaves the buffer far
	// under threshold, so each barrier halves it down to the floor.
	for i := 0; i < 16; i++ {
		if err := eps[0].Send(1, &wire.Msg{Kind: wire.KindData, Stamp: int64(100 + i)}); err != nil {
			t.Fatalf("light send %d: %v", i, err)
		}
		if err := eps[0].Flush(); err != nil {
			t.Fatalf("light flush %d: %v", i, err)
		}
	}
	lowered := eps[0].flushThreshold()
	if lowered != adaptiveFlushMin {
		t.Fatalf("threshold after light phase = %d, want floor %d", lowered, adaptiveFlushMin)
	}
	if got := mc.Snapshot().FlushThresholdCurrent; got != lowered {
		t.Fatalf("FlushThresholdCurrent gauge = %d, want %d", got, lowered)
	}
}
