package core

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"sdso/internal/diff"
	"sdso/internal/store"
	"sdso/internal/trace"
	"sdso/internal/transport"
	"sdso/internal/wire"
	"sdso/internal/xlist"
)

// held is what a runtime keeps about one peer outside its peerState: the
// DATA frames and SYNCs held early from the peer, each in arrival order,
// and whether the peer's checkpoint is vaulted.
type held struct {
	data    []*wire.Msg
	syncs   []syncRec
	vaulted bool
}

// heldFrom reads r's side tables for peer.
func heldFrom(r *Runtime, peer int) held {
	var h held
	for _, it := range r.early {
		switch {
		case it.peer != peer:
		case it.m != nil:
			h.data = append(h.data, it.m)
		default:
			h.syncs = append(h.syncs, syncRec{stamp: it.stamp, beacon: it.beacon})
		}
	}
	_, h.vaulted = r.vaults[peer]
	return h
}

// TestEarlyQueueAbsorbOrder: early DATA and SYNCs from three peers share
// one queue. A duplicate SYNC replaces the held one's beacon, a DONE drops
// the peer's SYNCs and keeps its DATA, an eviction does the same, and a
// readmission drops both. At the stamped tick every due DATA is applied —
// by peer, then in arrival order — before any peer's beacon is taken, in
// peer order too; what is stamped later stays held.
func TestEarlyQueueAbsorbOrder(t *testing.T) {
	net := transport.NewMemNetwork(4)
	t.Cleanup(net.Close)
	rec := trace.NewRecorder(0)
	r, err := New(Config{Endpoint: net.Endpoint(0), MergeDiffs: true, Trace: rec})
	if err != nil {
		t.Fatal(err)
	}
	for obj := store.ID(1); obj <= 3; obj++ {
		if err := r.Share(obj, counterBytes(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Exchange(ExchangeOpts{}); err != nil { // tick 1
		t.Fatal(err)
	}
	data := func(peer int, stamp int64, obj store.ID, ver int64) {
		state := counterBytes(uint64(100*peer) + uint64(ver))
		d := diff.Diff{Replace: true, Len: len(state), Runs: []diff.Run{{Data: state}}}
		payload := xlist.EncodeDiffs([]xlist.ObjDiff{{Obj: obj, Version: ver, D: d}})
		r.dispatch(&wire.Msg{Kind: wire.KindData, Src: int32(peer), Stamp: stamp, Payload: payload}, false)
	}
	sync := func(peer int, stamp int64, beacon ...int64) {
		r.dispatch(&wire.Msg{Kind: wire.KindSync, Src: int32(peer), Stamp: stamp, Ints: beacon}, false)
	}
	expect := func(what string, peer, nData int, syncs ...syncRec) {
		t.Helper()
		h := heldFrom(r, peer)
		if len(h.data) != nData || len(h.syncs) != len(syncs) {
			t.Fatalf("%s: peer %d holds %d DATA and SYNCs %v, want %d and %v", what, peer, len(h.data), h.syncs, nData, syncs)
		}
		for i, s := range syncs {
			if h.syncs[i].stamp != s.stamp || !slices.Equal(h.syncs[i].beacon, s.beacon) {
				t.Fatalf("%s: peer %d holds SYNCs %v, want %v", what, peer, h.syncs, syncs)
			}
		}
		if int(r.peers[peer].heldSyncs) != len(syncs) {
			t.Fatalf("%s: peer %d counts %d held SYNCs, holds %d", what, peer, r.peers[peer].heldSyncs, len(syncs))
		}
	}

	data(3, 2, 3, 1)
	sync(1, 2, 11)
	data(2, 2, 2, 1)
	data(1, 2, 1, 1)
	sync(3, 2, 31)
	sync(1, 2, 12) // a duplicate: the newer beacon replaces the held one's
	data(1, 3, 1, 2)
	data(1, 2, 1, 3)
	sync(1, 3, 13)
	sync(2, 2, 21)
	expect("held", 1, 3, syncRec{2, []int64{12}}, syncRec{3, []int64{13}})
	expect("held", 2, 1, syncRec{2, []int64{21}})
	expect("held", 3, 1, syncRec{2, []int64{31}})

	r.dispatch(&wire.Msg{Kind: wire.KindDone, Src: 2, Stamp: 2}, false)
	expect("after peer 2's DONE", 2, 1)
	r.evictPeer(3)
	expect("after peer 3's eviction", 3, 1)
	r.dispatch(&wire.Msg{Kind: wire.KindJoinReq, Src: 3, Stamp: 1}, false)
	if r.PeerGone(3) {
		t.Fatal("peer 3's join request did not readmit it")
	}
	expect("after peer 3's readmission", 3, 0)
	data(3, 2, 3, 2) // the new life's
	sync(3, 2, 32)
	expect("held", 1, 3, syncRec{2, []int64{12}}, syncRec{3, []int64{13}})

	mark := len(rec.Events())
	if err := r.Exchange(ExchangeOpts{}); err != nil { // tick 2
		t.Fatal(err)
	}
	var got []string
	for _, ev := range rec.Events()[mark:] {
		switch ev.Op {
		case trace.OpApply:
			got = append(got, fmt.Sprintf("data %d:%d@v%d", ev.Peer, ev.Obj, ev.Ver))
		case trace.OpSyncRecv:
			got = append(got, fmt.Sprintf("sync %d@%d", ev.Peer, ev.Aux))
		}
	}
	want := []string{"data 1:1@v1", "data 1:1@v3", "data 2:2@v1", "data 3:3@v2", "sync 1@2", "sync 3@2"}
	if !slices.Equal(got, want) {
		t.Fatalf("absorbed at tick 2 %v, want %v", got, want)
	}
	for peer, beacon := range map[int][]int64{1: {12}, 3: {32}} {
		if ps := &r.peers[peer]; ps.syncTick != 2 || !slices.Equal(ps.beacon, beacon) {
			t.Fatalf("peer %d's beacon at tick %d is %v, want %v at tick 2", peer, ps.syncTick, ps.beacon, beacon)
		}
	}
	expect("after tick 2", 1, 1, syncRec{3, []int64{13}})
	expect("after tick 2", 2, 0)
	expect("after tick 2", 3, 0)
}

// TestPeerStateSize: every runtime holds one peerState per peer, so a game
// of n players holds n² of them and every byte here is paid n² times.
func TestPeerStateSize(t *testing.T) {
	if size := unsafe.Sizeof(peerState{}); size > 176 {
		t.Fatalf("peerState is %d B, budget 176: state only some peers have belongs in a Runtime side table "+
			"(early traffic in Runtime.early, join grants in Runtime.grants, vaulted checkpoints in Runtime.vaults), "+
			"made when first used", size)
	}
}
