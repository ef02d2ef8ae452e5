package transport

// Tests pinning wire.Encoded refcount balance through the session layer's
// bounded send queue: every dequeue path must Release its frame back to
// the pool.

import (
	"testing"
	"time"

	"sdso/internal/wire"
)

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

// TestSendQueueDrainsInPlace pins the send queue's shape: frames leave in
// FIFO order, frames put back go in front of everything queued, and a queue held at a depth of a thousand
// frames — the writer popping one, a blocked sender pushing one — keeps
// reusing its array rather than growing it.
func TestSendQueueDrainsInPlace(t *testing.T) {
	encs := make([]*wire.Encoded, 5)
	for i := range encs {
		enc, err := wire.EncodeFrame(&wire.Msg{Kind: wire.KindSync, Stamp: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		defer enc.Release()
		encs[i] = enc
	}
	var q sendQueue
	for _, enc := range encs {
		q.push(sendEntry{enc: enc})
	}
	a, b := q.pop(), q.pop()
	q.unpop(a, b)
	for _, want := range []int{0, 1, 2, 3, 4} {
		if got := q.pop(); got.enc != encs[want] {
			t.Fatalf("popped a frame out of order, want frame %d", want)
		}
	}
	if q.len() != 0 || q.bytes != 0 || q.head != 0 {
		t.Fatalf("drained queue: len %d, bytes %d, head %d; want all zero", q.len(), q.bytes, q.head)
	}

	const depth = 1000
	for i := 0; i < depth; i++ {
		q.push(sendEntry{enc: encs[0]})
	}
	steady := 0
	for round := 0; round < 2; round++ {
		for i := 0; i < 5*depth; i++ {
			q.pop()
			q.push(sendEntry{enc: encs[0]})
		}
		if round == 0 {
			steady = cap(q.s)
		}
	}
	if q.len() != depth || q.bytes != depth*encs[0].Len() {
		t.Fatalf("steady queue: len %d, bytes %d; want %d frames", q.len(), q.bytes, depth)
	}
	if cap(q.s) != steady || steady > 4*depth {
		t.Fatalf("a queue held at %d frames kept growing its array: %d entries, then %d", depth, steady, cap(q.s))
	}
}
