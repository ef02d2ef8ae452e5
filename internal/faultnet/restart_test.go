package faultnet

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"sdso/internal/transport"
	"sdso/internal/wire"
)

// TestOneWayPartition: an asymmetric cut drops 0→1 traffic on both the send
// and the receive side while 1→0 still flows.
func TestOneWayPartition(t *testing.T) {
	net := transport.NewMemNetwork(2)
	defer net.Close()
	plan := &Plan{Seed: 5, OneWay: [][2]int{{0, 1}}}
	ep0 := plan.Wrap(net.Endpoint(0), nil)
	ep1 := plan.Wrap(net.Endpoint(1), nil)

	if err := ep0.Send(1, &wire.Msg{Kind: wire.KindSync, Stamp: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := ep1.TryRecv(); ok {
		t.Fatal("message crossed the one-way cut 0->1")
	}
	if err := ep1.Send(0, &wire.Msg{Kind: wire.KindSync, Stamp: 2}); err != nil {
		t.Fatal(err)
	}
	if m, ok, _ := ep0.TryRecv(); !ok || m.Stamp != 2 {
		t.Fatal("reverse direction 1->0 should flow through a one-way cut")
	}
}

// TestOneWayReceiveSideCut: even when only the receiver is wrapped (the
// sender bypasses the plan entirely), the inbound filter enforces the cut.
func TestOneWayReceiveSideCut(t *testing.T) {
	net := transport.NewMemNetwork(2)
	defer net.Close()
	plan := &Plan{Seed: 5, OneWay: [][2]int{{0, 1}}}
	ep1 := plan.Wrap(net.Endpoint(1), nil)
	if err := net.Endpoint(0).Send(1, &wire.Msg{Kind: wire.KindSync, Stamp: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := ep1.TryRecv(); ok {
		t.Fatal("receive-side filter let a cut message through")
	}
}

// TestHeal: a scheduled heal restores a partition once the endpoint clock
// passes the heal instant; a one-way heal restores only one direction.
func TestHeal(t *testing.T) {
	net := transport.NewMemNetwork(2)
	defer net.Close()
	plan := &Plan{
		Seed:       2,
		Partitions: [][2]int{{0, 1}},
		Heals:      []Heal{{At: time.Nanosecond, Pair: [2]int{0, 1}, OneWay: true}},
	}
	ep0 := plan.Wrap(net.Endpoint(0), nil)
	ep1 := plan.Wrap(net.Endpoint(1), nil)
	time.Sleep(time.Millisecond) // the wall clock passes the heal instant

	if err := ep0.Send(1, &wire.Msg{Kind: wire.KindSync, Stamp: 1}); err != nil {
		t.Fatal(err)
	}
	if m, ok, _ := ep1.TryRecv(); !ok || m.Stamp != 1 {
		t.Fatal("healed direction 0->1 still cut")
	}
	if err := ep1.Send(0, &wire.Msg{Kind: wire.KindSync, Stamp: 2}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := ep0.TryRecv(); ok {
		t.Fatal("one-way heal restored the unhealed direction 1->0")
	}
}

// TestAwaitRestart: a crash-then-restart revives the endpoint with the
// triggers disarmed and the down-time inbox discarded.
func TestAwaitRestart(t *testing.T) {
	net := transport.NewMemNetwork(2)
	defer net.Close()
	plan := &Plan{Seed: 1, Crashes: map[int]Crash{0: {At: time.Nanosecond, RestartAfter: time.Nanosecond}}}
	ep := plan.Wrap(net.Endpoint(0), nil)
	time.Sleep(time.Millisecond) // the wall clock passes the crash instant

	if _, _, err := ep.TryRecv(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("TryRecv before restart: got %v, want ErrCrashed", err)
	}
	// Traffic delivered while down must not survive the restart.
	if err := net.Endpoint(1).Send(0, &wire.Msg{Kind: wire.KindData, Stamp: 7}); err != nil {
		t.Fatal(err)
	}
	if err := ep.AwaitRestart(); err != nil {
		t.Fatalf("AwaitRestart: %v", err)
	}
	if ep.Crashed() {
		t.Fatal("endpoint still marked crashed after restart")
	}
	if _, ok, err := ep.TryRecv(); err != nil || ok {
		t.Fatalf("down-time inbox survived the restart (ok=%v err=%v)", ok, err)
	}
	// The revived process communicates normally; the disarmed trigger must
	// not re-fire even though the clock is past the crash instant.
	if err := ep.Send(1, &wire.Msg{Kind: wire.KindSync, Stamp: 99}); err != nil {
		t.Fatalf("post-restart send: %v", err)
	}
	if m, ok, _ := net.Endpoint(1).TryRecv(); !ok || m.Stamp != 99 {
		t.Fatal("post-restart message lost")
	}
}

// TestAwaitRestartErrors: restarting requires both a schedule and a crash.
func TestAwaitRestartErrors(t *testing.T) {
	net := transport.NewMemNetwork(2)
	defer net.Close()

	noSchedule := (&Plan{Seed: 1, Crashes: map[int]Crash{0: {At: time.Nanosecond}}}).Wrap(net.Endpoint(0), nil)
	time.Sleep(time.Millisecond)
	_, _, _ = noSchedule.TryRecv() // trip the crash
	if err := noSchedule.AwaitRestart(); err == nil {
		t.Fatal("AwaitRestart without a scheduled restart should fail")
	}

	notCrashed := (&Plan{Seed: 1, Crashes: map[int]Crash{1: {At: time.Hour, RestartAfter: time.Hour}}}).Wrap(net.Endpoint(1), nil)
	if err := notCrashed.AwaitRestart(); err == nil {
		t.Fatal("AwaitRestart before the crash should fail")
	}
}

// TestAwaitRestartKeepsLiterals: the restart's inbox drain hands every
// discarded message back through Recycle, and a literal among them — a
// checkpoint whose Payload is its sender's snapshot, kept in the sender's
// other copies and in peers' vaults — is not the pool's. It must come back
// unchanged and never out of GetMsg, where a decode would scribble over
// the shared snapshot.
func TestAwaitRestartKeepsLiterals(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // a Put is this P's next Get
	net := transport.NewMemNetwork(2)
	defer net.Close()
	plan := &Plan{Seed: 1, Crashes: map[int]Crash{0: {At: time.Nanosecond, RestartAfter: time.Nanosecond}}}
	ep := plan.Wrap(net.Endpoint(0), nil)
	time.Sleep(time.Millisecond) // the wall clock passes the crash instant
	if _, _, err := ep.TryRecv(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("TryRecv before restart: got %v, want ErrCrashed", err)
	}
	snap := []byte("the sender's snapshot blob, shared with its vault copies")
	ckpt := &wire.Msg{Kind: wire.KindCkpt, Stamp: 4, Obj: 1, Payload: snap}
	if err := net.Endpoint(1).Send(0, ckpt); err != nil {
		t.Fatal(err)
	}
	if err := ep.AwaitRestart(); err != nil {
		t.Fatalf("AwaitRestart: %v", err)
	}
	if ckpt.Kind != wire.KindCkpt || ckpt.Stamp != 4 || &ckpt.Payload[0] != &snap[0] || len(ckpt.Payload) != len(snap) {
		t.Fatalf("the drain recycled the checkpoint literal: it reads %v", ckpt)
	}
	for i := 0; i < 8; i++ {
		if m := wire.GetMsg(); m == ckpt {
			t.Fatalf("GetMsg %d handed out the drained checkpoint literal", i)
		}
	}
}
