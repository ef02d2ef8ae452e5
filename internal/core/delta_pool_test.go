package core

import (
	"testing"

	"sdso/internal/store"
	"sdso/internal/transport"
)

// TestResetTablesPinNoState is the witness for the bookkeeping rule
// (DESIGN.md §15: a freed block is cleared) where it meets the state-bytes
// rule: delta entries hold published state bytes, and a reset table's block
// goes back to the runtime's pool to become another peer's table. Every
// entry of peer 1's tables carries the same poison state; after
// deltaResetPeer the other peers' tables grow back through every block
// peer 1's held — the ones its growth freed and the ones the reset freed —
// and nothing anywhere in those blocks, in or beyond the tables' lengths,
// may still be poisoned: a block that kept an entry would pin its state for
// as long as the pool lives, and hand the next table a stale tip.
func TestResetTablesPinNoState(t *testing.T) {
	net := transport.NewMemNetwork(4)
	t.Cleanup(net.Close)
	r, err := New(Config{Endpoint: net.Endpoint(0), DeltaEncode: true})
	if err != nil {
		t.Fatal(err)
	}
	poison := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	poisoned := func(e *deltaEntry) bool { return len(e.state) > 0 && &e.state[0] == &poison[0] }
	const objects = 30 // four size classes: 4, 8, 16, 32

	// held is the first element of every block peer 1's tables ever sat in.
	held := make(map[*deltaEntry]bool)
	ps := &r.peers[1]
	for obj := store.ID(0); obj < objects; obj++ {
		for _, tab := range []*deltaTable{&ps.send.deltaTable, &ps.recv} {
			*tab.at(&r.deltaPool, obj) = deltaEntry{obj: obj, known: true, ver: 1, stamp: 1, state: poison}
			held[&tab.entries[0]] = true
		}
	}
	if len(held) != 8 {
		t.Fatalf("peer 1's tables sat in %d blocks, want 8 (two tables, four classes)", len(held))
	}

	r.deltaResetPeer(1)
	if ps.send.entries != nil || ps.recv.entries != nil || ps.send.acked != 0 {
		t.Fatalf("deltaResetPeer left %+v / %+v", ps.send, ps.recv)
	}

	reused := 0
	for _, peer := range []int{2, 3} {
		for obj := store.ID(0); obj < objects; obj++ {
			for _, tab := range []*deltaTable{&r.peers[peer].send.deltaTable, &r.peers[peer].recv} {
				e := tab.at(&r.deltaPool, obj)
				if e.obj != obj || e.known || e.stamp != 0 || e.ver != 0 || e.state != nil {
					t.Fatalf("peer %d: first use of object %d found %+v", peer, obj, *e)
				}
				block := tab.entries[:cap(tab.entries)]
				if len(tab.entries) == 1 && held[&block[0]] {
					reused++
				}
				for i := range block {
					if poisoned(&block[i]) {
						t.Fatalf("peer %d: element %d of a %d-entry block still holds peer 1's state", peer, i, len(block))
					}
				}
			}
		}
	}
	// The walk above must have gone through peer 1's old blocks, or it
	// proved nothing: the class-0 blocks are taken by the tables' first
	// entries (the larger ones by their growth, which the same scan covers).
	if reused == 0 {
		t.Fatal("no table started in a block peer 1 freed: the pool reused nothing")
	}
}

// TestDoneFreesSendTable: nothing is flushed to a finished peer again, so
// its sender half goes back to the pool at its DONE; the receiver half must
// stay, because the peer's final flush can still be waiting as early data
// and may be a delta against the shadow.
func TestDoneFreesSendTable(t *testing.T) {
	net := transport.NewMemNetwork(2)
	t.Cleanup(net.Close)
	r, err := New(Config{Endpoint: net.Endpoint(0), DeltaEncode: true})
	if err != nil {
		t.Fatal(err)
	}
	ps := &r.peers[1]
	ps.send.at(&r.deltaPool, 3).known = true
	ps.send.acked = 5
	ps.recv.at(&r.deltaPool, 4).ver = 9
	block := &ps.send.entries[0]
	r.handleDone(1, false, 1)
	if ps.send.entries != nil || ps.send.acked != 0 {
		t.Fatalf("send half after DONE: %+v", ps.send)
	}
	if len(ps.recv.entries) != 1 || ps.recv.entries[0].ver != 9 {
		t.Fatalf("receive half after DONE: %+v", ps.recv.entries)
	}
	if again := r.peers[1].send.at(&r.deltaPool, 8); again != block {
		t.Error("the freed send block did not go back to the pool")
	}
}
