package core

import (
	"encoding/binary"
	"testing"

	"sdso/internal/store"
	"sdso/internal/trace"
	"sdso/internal/transport"
	"sdso/internal/wire"
)

// TestRidingDoneAheadOfReceiversClock: a peer one tick behind receives the
// departing process's final flush — DATA carrying the DONE marker, stamped
// ahead of its clock. The marker takes effect at arrival (the sender is
// gone from the schedule at once) while the data half is held early
// and is absorbed at its own tick, after the sender was marked done; and
// the DONE is recorded with the stamp a bare DONE carries, the sender's
// last tick.
func TestRidingDoneAheadOfReceiversClock(t *testing.T) {
	for _, buffered := range []bool{true, false} { // riding DONE, then the bare one
		net := transport.NewMemNetwork(2)
		t.Cleanup(net.Close)
		rec := trace.NewRecorder(1)
		a, err := New(Config{Endpoint: net.Endpoint(0), MergeDiffs: true})
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(Config{Endpoint: net.Endpoint(1), MergeDiffs: true, Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Runtime{a, b} {
			if err := r.Share(1, counterBytes(0)); err != nil {
				t.Fatal(err)
			}
		}
		// Push-only exchanges, so neither side blocks: a runs to tick 2 and
		// leaves, b is at tick 1 when the final frame arrives.
		tick := func(r *Runtime) {
			t.Helper()
			if err := r.Exchange(ExchangeOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		tick(a)
		tick(a)
		if buffered {
			if err := a.Write(1, counterBytes(42)); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Done(false); err != nil {
			t.Fatal(err)
		}
		if got, want := a.Metrics().Snapshot().PiggybackedDones == 1, buffered; got != want {
			t.Fatalf("buffered=%v: DONE rode the final flush = %v", buffered, got)
		}
		tick(b)
		b.Poll()
		value := func() uint64 {
			state, _ := b.Store().Get(1)
			return binary.BigEndian.Uint64(state)
		}
		if !b.PeerDone(0) {
			t.Fatalf("buffered=%v: the DONE did not take effect at arrival", buffered)
		}
		var doneStamp int64 = -1
		for _, ev := range rec.Events() {
			if ev.Op == trace.OpPeerDone {
				doneStamp = ev.Aux
			}
		}
		if doneStamp != 2 {
			t.Errorf("buffered=%v: OpPeerDone recorded stamp %d, want the sender's last tick 2", buffered, doneStamp)
		}
		if !buffered {
			continue
		}
		if got := len(heldFrom(b, 0).data); got != 1 || value() != 0 {
			t.Fatalf("at tick %d: %d early DATA held, object = %d; want the flush stamped 3 waiting unapplied", b.Now(), got, value())
		}
		tick(b) // tick 2: still ahead
		if value() != 0 {
			t.Fatalf("final flush stamped 3 applied at tick %d", b.Now())
		}
		tick(b) // tick 3: absorbed, from a peer long marked done
		if got := len(heldFrom(b, 0).data); got != 0 || value() != 42 {
			t.Fatalf("at tick %d: %d early DATA held, object = %d; want the final write absorbed", b.Now(), got, value())
		}
	}
}

// FuzzConsumeData is the live-read-path fuzz target: a frame of any kind —
// DATA with arbitrary mode bits, SYNC (retransmitted or not), DONE, ObjReq
// (get or put), ObjReply (an AsyncGet's or a correlated one), CKPT — with an
// arbitrary stamp, object, beacon and payload is dispatched into a runtime
// mid-game, from a live peer (1), an evicted one (2) or one not yet joined
// (3). It must never panic, and a frame from a crashed or absent peer that
// is not join traffic must be dropped whole — whatever marker it carries.
func FuzzConsumeData(f *testing.F) {
	data := uint8(wire.KindData)
	f.Add(data, int32(1), int64(2), uint8(wire.ModeSyncPiggyback), uint32(0), []byte{1, 2, 3}, []byte{0, 0, 0, 1}, true)
	f.Add(data, int32(1), int64(9), uint8(wire.ModeDonePiggyback|wire.ModeDoneWon), uint32(0), []byte{}, []byte{}, false)
	f.Add(data, int32(2), int64(1), uint8(0xF0), uint32(0), []byte{0xFF}, []byte{9}, true)
	f.Add(data, int32(3), int64(-1), uint8(wire.ModeDonePiggyback|wire.ModeSyncPiggyback|wire.ModeDeltaPayload), uint32(0), []byte{7}, []byte{}, false)
	f.Add(data, int32(7), int64(1)<<62, uint8(0x3F), uint32(0), []byte{}, []byte{1}, true)
	snap := store.New()
	if err := snap.Register(1, counterBytes(5)); err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(wire.KindSync), int32(1), int64(1), uint8(0), uint32(0), []byte{4, 2}, []byte{}, true)
	f.Add(uint8(wire.KindSync), int32(2), int64(1), modeRetransmit, uint32(0), []byte{1}, []byte{}, false)
	f.Add(uint8(wire.KindDone), int32(3), int64(1), doneWon, uint32(0), []byte{}, []byte{}, false)
	f.Add(uint8(wire.KindObjReq), int32(1), int64(3), uint8(0), uint32(1), []byte{}, []byte{}, false)
	f.Add(uint8(wire.KindObjReq), int32(2), int64(1)<<20|1, modePut, uint32(1), []byte{3}, counterBytes(9), false)
	f.Add(uint8(wire.KindObjReply), int32(1), int64(1), modeAuto, uint32(1), []byte{2}, counterBytes(7), false)
	f.Add(uint8(wire.KindObjReply), int32(3), int64(1)<<20|1, uint8(0), uint32(1), []byte{2}, counterBytes(7), false)
	f.Add(uint8(wire.KindCkpt), int32(2), int64(1), uint8(0), uint32(2), []byte{}, snap.Snapshot(1), false)
	f.Fuzz(func(t *testing.T, kind uint8, src int32, stamp int64, mode uint8, obj uint32, beacon, payload []byte, rendezvous bool) {
		net := transport.NewMemNetwork(4)
		defer net.Close()
		// Peer 1 is live, 2 gets evicted, 3 has not joined. Checkpoints are
		// vaulted (none is streamed this early), so CKPT frames take their
		// whole path.
		r, err := New(Config{Endpoint: net.Endpoint(0), MergeDiffs: true, InitialMembers: []int{1, 2}, CheckpointEvery: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Share(1, counterBytes(0)); err != nil {
			t.Fatal(err)
		}
		if err := r.Exchange(ExchangeOpts{}); err != nil {
			t.Fatal(err)
		}
		r.evictPeer(2)
		epoch := r.epoch
		ints := make([]int64, len(beacon))
		for i, v := range beacon {
			ints[i] = int64(int8(v))
		}
		k := wire.Kind(kind)
		r.dispatch(&wire.Msg{Kind: k, Src: src, Stamp: stamp, Mode: mode, Obj: obj, Ints: ints, Payload: payload}, rendezvous)
		if src != 2 && src != 3 || k == wire.KindJoinReq || k == wire.KindJoinAck || k == wire.KindSnapshot {
			return
		}
		ps, h := &r.peers[src], heldFrom(r, int(src))
		if ps.is(done) || len(h.data) != 0 || len(h.syncs) != 0 || ps.syncSeen != 0 || r.GameOver() || r.epoch != epoch {
			t.Fatalf("%v frame from gone peer %d (mode %#x) left a mark: %+v gameOver=%v epoch %d→%d", k, src, mode, *ps, r.GameOver(), epoch, r.epoch)
		}
	})
}
