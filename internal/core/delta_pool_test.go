package core

import (
	"reflect"
	"testing"

	"sdso/internal/store"
	"sdso/internal/transport"
)

// TestResetTablesPinNoState is the witness for the bookkeeping rule
// (DESIGN.md §15: a freed record is cleared) where it meets the state-bytes
// rule: delta entries hold published state bytes, and a reset table's
// entries go back to the runtime's slab — its pointer block to the pool —
// to become another peer's. Every entry of peer 1's tables carries the same
// poison state; after deltaResetPeer each of them must be zero, the other
// peers' tables must grow back through all of them, and nothing those
// tables name or hold, in or beyond their lengths, may still be poisoned: a
// freed entry that kept its state would pin it for as long as the slab
// lives, and hand the next table a stale tip.
func TestResetTablesPinNoState(t *testing.T) {
	net := transport.NewMemNetwork(4)
	t.Cleanup(net.Close)
	r, err := New(Config{Endpoint: net.Endpoint(0), DeltaEncode: true})
	if err != nil {
		t.Fatal(err)
	}
	poison := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	poisoned := func(e *deltaEntry) bool { return len(e.state) > 0 && &e.state[0] == &poison[0] }
	const objects = 30 // four size classes of pointer block: 4, 8, 16, 32

	// held is every entry peer 1's tables named.
	held := make(map[*deltaEntry]bool)
	ps := &r.peers[1]
	for obj := store.ID(0); obj < objects; obj++ {
		for _, tab := range []*deltaTable{&ps.send.deltaTable, &ps.recv} {
			e := tab.at(&r.deltaPool, obj)
			*e = deltaEntry{obj: obj, known: true, ver: 1, stamp: 1, state: poison}
			held[e] = true
		}
	}
	if len(held) != 2*objects {
		t.Fatalf("peer 1's tables named %d entries, want %d", len(held), 2*objects)
	}

	r.deltaResetPeer(1)
	if ps.send.entries != nil || ps.recv.entries != nil || ps.send.acked != 0 {
		t.Fatalf("deltaResetPeer left %+v / %+v", ps.send, ps.recv)
	}
	for e := range held {
		if !reflect.ValueOf(*e).IsZero() {
			t.Fatalf("a freed entry still holds %+v", *e)
		}
	}

	reused := 0
	for _, peer := range []int{2, 3} {
		for obj := store.ID(0); obj < objects; obj++ {
			for _, tab := range []*deltaTable{&r.peers[peer].send.deltaTable, &r.peers[peer].recv} {
				e := tab.at(&r.deltaPool, obj)
				if e.obj != obj || e.known || e.stamp != 0 || e.ver != 0 || e.state != nil {
					t.Fatalf("peer %d: first use of object %d found %+v", peer, obj, *e)
				}
				if held[e] {
					reused++
				}
				for _, named := range tab.entries {
					if poisoned(named) {
						t.Fatalf("peer %d: a %d-entry table names peer 1's state", peer, len(tab.entries))
					}
				}
				for i, p := range tab.entries[len(tab.entries):cap(tab.entries)] {
					if p != nil {
						t.Fatalf("peer %d: slot %d beyond a %d-entry table still names an entry", peer, i, len(tab.entries))
					}
				}
			}
		}
	}
	// The walk above must have gone through peer 1's old entries, or it
	// proved nothing.
	if reused != len(held) {
		t.Fatalf("the other peers' tables reused %d of the %d entries peer 1 freed", reused, len(held))
	}
}

// TestDoneFreesSendTable: nothing is flushed to a finished peer again, so
// its sender half goes back to the slab at its DONE, cleared; the receiver
// half must stay, because the peer's final flush can still be waiting as
// early data and may be a delta against the shadow.
func TestDoneFreesSendTable(t *testing.T) {
	net := transport.NewMemNetwork(2)
	t.Cleanup(net.Close)
	r, err := New(Config{Endpoint: net.Endpoint(0), DeltaEncode: true})
	if err != nil {
		t.Fatal(err)
	}
	ps := &r.peers[1]
	sent := ps.send.at(&r.deltaPool, 3)
	sent.known, sent.state = true, []byte{1}
	ps.send.acked = 5
	ps.recv.at(&r.deltaPool, 4).ver = 9
	r.handleDone(1, false, 1)
	if ps.send.entries != nil || ps.send.acked != 0 {
		t.Fatalf("send half after DONE: %+v", ps.send)
	}
	if !reflect.ValueOf(*sent).IsZero() {
		t.Fatalf("the freed send entry still holds %+v", *sent)
	}
	if len(ps.recv.entries) != 1 || ps.recv.entries[0].ver != 9 {
		t.Fatalf("receive half after DONE: %+v", ps.recv.entries)
	}
	if again := r.peers[1].send.at(&r.deltaPool, 8); again != sent {
		t.Error("the freed send entry did not go back to the slab")
	}
}
