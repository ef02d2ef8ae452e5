package core

import (
	"testing"

	"sdso/internal/race"
	"sdso/internal/transport"
)

// TestPeerLifecycleEdges: every edge from every status lands where the
// lifecycle says, the epoch moves exactly on a membership change — a
// readmission, a DONE or an eviction — and an edge a status has not got
// changes nothing. Leaving the game takes the peer off the exchange list,
// and allocates nothing, however large the epoch and the DONE's stamp.
func TestPeerLifecycleEdges(t *testing.T) {
	names := [...]string{live: "live", departed: "departed", absent: "absent", done: "done", crashed: "crashed"}
	edges := [...]string{onReadmit: "readmit", onMark: "mark", onSettle: "settle", onDone: "DONE", onEvict: "evict"}
	cases := []struct {
		from  status
		e     edge
		to    status
		epoch bool
	}{
		{live, onReadmit, live, false}, // a repeated readmit is a no-op
		{live, onMark, departed, false},
		{live, onSettle, live, false},
		{live, onDone, done, true},
		{live, onEvict, crashed, true},
		{departed, onReadmit, departed, false},
		{departed, onMark, departed, false},
		{departed, onSettle, live, false},
		{departed, onDone, done, true},
		{departed, onEvict, crashed, true},
		{absent, onReadmit, live, true},
		{absent, onMark, absent, false},
		{absent, onSettle, absent, false},
		{absent, onDone, absent, false},
		{absent, onEvict, crashed, true}, // an absent peer that failed to join
		{done, onReadmit, done, false},   // done is final
		{done, onMark, done, false},
		{done, onSettle, done, false},
		{done, onDone, done, false},
		{done, onEvict, done, false},
		{crashed, onReadmit, live, true},
		{crashed, onMark, crashed, false},
		{crashed, onSettle, crashed, false},
		{crashed, onDone, crashed, false},
		{crashed, onEvict, crashed, false},
	}
	for _, c := range cases {
		net := transport.NewMemNetwork(3)
		cfg := Config{Endpoint: net.Endpoint(0)}
		if c.from == absent {
			cfg.InitialMembers = []int{0, 2}
		}
		r, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		switch c.from { // peer 1 reaches its status the way a game takes it there
		case departed:
			r.Departed(1)
		case done:
			r.handleDone(1, false, 0)
		case crashed:
			r.evictPeer(1)
		}
		ps := &r.peers[1]
		if ps.status != c.from {
			t.Fatalf("set-up for %s reached %s", names[c.from], names[ps.status])
		}
		epoch := r.epoch
		changed := r.move(1, c.e, 0)
		if ps.status != c.to || changed != (c.from != c.to) || (r.epoch != epoch) != c.epoch {
			t.Errorf("%s --%s--> %s (changed %v, epoch %d→%d), want %s (epoch moves %v)",
				names[c.from], edges[c.e], names[ps.status], changed, epoch, r.epoch, names[c.to], c.epoch)
		}
		if _, scheduled := r.NextExchange(1); scheduled && ps.ended() {
			t.Errorf("%s --%s--> %s left the peer on the exchange list", names[c.from], edges[c.e], names[ps.status])
		}
		net.Close()
	}

	if race.Enabled {
		return // the detector's instrumentation allocates
	}
	net := transport.NewMemNetwork(3)
	defer net.Close()
	r, err := New(Config{Endpoint: net.Endpoint(0)})
	if err != nil {
		t.Fatal(err)
	}
	r.epoch = 1000
	for name, leave := range map[string]func(){
		"DONE received": func() { r.handleDone(1, false, 777) },
		"eviction":      func() { r.evictPeer(1) },
	} {
		if allocs := testing.AllocsPerRun(100, func() {
			r.peers[1].status = live
			leave()
		}); allocs != 0 || !r.peers[1].ended() {
			t.Errorf("%s at epoch %d: %.1f allocations (ended %v), want 0", name, r.epoch, allocs, r.peers[1].ended())
		}
	}
}
