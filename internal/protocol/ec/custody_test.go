package ec

import (
	"testing"
	"time"

	"sdso/internal/game"
	"sdso/internal/lockmgr"
	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/transport"
	"sdso/internal/wire"
)

// tableNode builds team 0 of a 3-team game, rejoining at incarnation 1 with
// quorum replication at f 1, so that every status and every custody is
// reachable through the handlers that take them there. Nothing runs its
// loops: the tests call the handlers the service loop calls.
func tableNode(t *testing.T) (*Node, *transport.MemNetwork) {
	t.Helper()
	net := transport.NewMemNetwork(6)
	t.Cleanup(net.Close)
	n, err := New(NodeConfig{
		Game: game.DefaultConfig(3, 1), App: net.Endpoint(0), Svc: net.Endpoint(3),
		Metrics: metrics.NewCollector(), SuspectTimeout: 50 * time.Millisecond,
		Rejoin: true, Incarnation: 1, QuorumF: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return n, net
}

// joinAck is team from's answer to team 0's join, listing the crashed.
func joinAck(from int, crashed ...int64) *wire.Msg {
	return &wire.Msg{Kind: wire.KindJoinAck, Src: int32(3 + from), Ints: append([]int64{0}, crashed...),
		Payload: lockmgr.EncodeRecords(nil)}
}

// must fails the test on a handler error.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestTeamLifecycleEdges: every edge from every status lands where the
// lifecycle says, taken through the handler that takes it: a crash the
// application notes (noteCrash), one the service handles (handleCrash, also
// with a stale incarnation), a SHUTDOWN (serve), a join request
// (serveJoin), and a join ack that shows the team alive or lists it crashed
// (acceptJoin). Team 1 is readmitted at incarnation 1 first, so a
// declaration carrying 0 predates its rejoin: the application ignores it in
// every status, and the service counts out only a team already declared.
func TestTeamLifecycleEdges(t *testing.T) {
	names := [...]string{live: "live", declared: "declared", done: "done", crashed: "crashed"}
	reach := map[teamStatus]func(*testing.T, *Node){
		live:     func(*testing.T, *Node) {},
		declared: func(_ *testing.T, n *Node) { n.noteCrash(1, 1) },
		done: func(t *testing.T, n *Node) {
			_, err := n.serve(&wire.Msg{Kind: wire.KindShutdown, Stamp: 1})
			must(t, err)
		},
		crashed: func(t *testing.T, n *Node) { must(t, n.handleCrash(1, 1)) },
	}
	edges := map[string]func(*testing.T, *Node){
		"noteCrash":         func(_ *testing.T, n *Node) { n.noteCrash(1, 1) },
		"stale noteCrash":   func(_ *testing.T, n *Node) { n.noteCrash(1, 0) },
		"handleCrash":       func(t *testing.T, n *Node) { must(t, n.handleCrash(1, 1)) },
		"stale handleCrash": func(t *testing.T, n *Node) { must(t, n.handleCrash(1, 0)) },
		"SHUTDOWN": func(t *testing.T, n *Node) {
			_, err := n.serve(&wire.Msg{Kind: wire.KindShutdown, Stamp: 1})
			must(t, err)
		},
		"join request": func(t *testing.T, n *Node) { must(t, n.serveJoin(&wire.Msg{Kind: wire.KindJoinReq, Src: 1, Stamp: 2})) },
		"stale join request": func(t *testing.T, n *Node) {
			must(t, n.serveJoin(&wire.Msg{Kind: wire.KindJoinReq, Src: 1, Stamp: 0}))
		},
		"its join ack":   func(t *testing.T, n *Node) { must(t, n.acceptJoin(joinAck(1))) },
		"listed crashed": func(t *testing.T, n *Node) { must(t, n.acceptJoin(joinAck(2, 1))) },
	}
	cases := []struct {
		from teamStatus
		edge string
		to   teamStatus
		inc  int64
	}{
		{live, "noteCrash", declared, 1},
		{live, "stale noteCrash", live, 1},
		{live, "handleCrash", crashed, 1},
		{live, "stale handleCrash", live, 1},
		{live, "SHUTDOWN", done, 1},
		{live, "join request", live, 2},
		{live, "stale join request", live, 1},
		{live, "its join ack", live, 1},
		{live, "listed crashed", crashed, 1},
		{declared, "noteCrash", declared, 1},
		{declared, "stale noteCrash", declared, 1},
		{declared, "handleCrash", crashed, 1},
		{declared, "stale handleCrash", crashed, 1},
		{declared, "SHUTDOWN", crashed, 1},
		{declared, "join request", live, 2},
		{declared, "stale join request", declared, 1},
		{declared, "its join ack", live, 1},
		{declared, "listed crashed", declared, 1},
		{done, "noteCrash", crashed, 1},
		{done, "stale noteCrash", done, 1},
		{done, "handleCrash", crashed, 1},
		{done, "stale handleCrash", done, 1},
		{done, "SHUTDOWN", done, 1},
		{done, "join request", live, 2}, // done is not final: a restart readmits
		{done, "stale join request", done, 1},
		{done, "its join ack", done, 1},
		{done, "listed crashed", crashed, 1},
		{crashed, "noteCrash", crashed, 1},
		{crashed, "stale noteCrash", crashed, 1},
		{crashed, "handleCrash", crashed, 1},
		{crashed, "stale handleCrash", crashed, 1},
		{crashed, "SHUTDOWN", crashed, 1},
		{crashed, "join request", live, 2},
		{crashed, "stale join request", crashed, 1},
		{crashed, "its join ack", done, 1},
		{crashed, "listed crashed", crashed, 1},
	}
	for _, c := range cases {
		n, _ := tableNode(t)
		must(t, n.serveJoin(&wire.Msg{Kind: wire.KindJoinReq, Src: 1, Stamp: 1}))
		reach[c.from](t, n)
		if got := n.lives[1].status; got != c.from {
			t.Fatalf("set-up for %s reached %s", names[c.from], names[got])
		}
		edges[c.edge](t, n)
		if got := n.lives[1]; got.status != c.to || got.inc != c.inc {
			t.Errorf("%s --%s--> %s at incarnation %d, want %s at %d",
				names[c.from], c.edge, names[got.status], got.inc, names[c.to], c.inc)
		}
		if got := n.lives[0]; got.status != live || got.inc != 1 {
			t.Errorf("%s --%s--> moved the node's own team to %s at %d", names[c.from], c.edge, names[got.status], got.inc)
		}
	}
}

// TestShardCustodyEdges: every edge from every custody lands where the
// custody table says, taken through the handler that takes it, and each
// edge does its bookkeeping. The shard under test is team 2's, whose
// successor is team 0 once team 2 is crashed: adoptShards adopts it,
// startAdoptRecon starts its quorum read, stall parks its traffic,
// handleQReadAck folds a reply, land lands it, serveJoin exports it to the
// rejoined team 2 (a repeat of the same incarnation exports nothing), and
// acceptJoin's ack from team 2 returns it. The own shard is only ever home
// or rejoining: no handler adopts, reconstructs, exports or returns it,
// and acceptJoin records answers on it alone.
func TestShardCustodyEdges(t *testing.T) {
	names := [...]string{notHeld: "notHeld", home: "home", rejoining: "rejoining", adopted: "adopted",
		reconstructing: "reconstructing", reconstructed: "reconstructed", handedBack: "handedBack"}
	obj := store.ID(2) // ManagerFor(2, 3) == 2
	own := store.ID(0)
	reconstruct := func(t *testing.T, n *Node) {
		must(t, n.handleCrash(2, 0))
		n.stall(wire.GetMsgOf(wire.Msg{Kind: wire.KindLockReq, Src: 1, Obj: uint32(obj), Mode: wire.ModeWrite}))
	}
	reply := func(n *Node) *wire.Msg {
		seq := int64(99)
		if r := n.shards[2].recon; r != nil {
			seq = r.seq
		}
		return &wire.Msg{Kind: wire.KindQReadAck, Src: 4, Stamp: seq, Obj: 2, Payload: lockmgr.EncodeRecords(nil)}
	}
	reach := map[custody]func(*testing.T, *Node){
		notHeld:        func(*testing.T, *Node) {},
		reconstructing: reconstruct,
		reconstructed: func(t *testing.T, n *Node) {
			reconstruct(t, n)
			must(t, n.handleQReadAck(reply(n)))
		},
		adopted: func(t *testing.T, n *Node) {
			reconstruct(t, n)
			must(t, n.handleQReadAck(reply(n)))
			must(t, n.acceptJoin(joinAck(2)))
		},
		handedBack: func(t *testing.T, n *Node) { must(t, n.serveJoin(&wire.Msg{Kind: wire.KindJoinReq, Src: 2, Stamp: 1})) },
	}
	edges := map[string]func(*testing.T, *Node) bool{
		"adoptShards": func(_ *testing.T, n *Node) bool {
			n.noteCrash(2, n.lives[2].inc)
			n.adoptShards()
			return true
		},
		"startAdoptRecon": func(t *testing.T, n *Node) bool {
			n.noteCrash(2, n.lives[2].inc)
			must(t, n.startAdoptRecon())
			return true
		},
		"stall": func(_ *testing.T, n *Node) bool {
			return n.stall(wire.GetMsgOf(wire.Msg{Kind: wire.KindLockReq, Src: 1, Obj: uint32(obj)}))
		},
		"handleQReadAck": func(t *testing.T, n *Node) bool { must(t, n.handleQReadAck(reply(n))); return true },
		"land":           func(t *testing.T, n *Node) bool { must(t, n.land(2)); return true },
		"serveJoin": func(t *testing.T, n *Node) bool {
			must(t, n.serveJoin(&wire.Msg{Kind: wire.KindJoinReq, Src: 2, Stamp: n.lives[2].inc + 1}))
			return true
		},
		"acceptJoin": func(t *testing.T, n *Node) bool { must(t, n.acceptJoin(joinAck(2))); return true },
	}
	cases := []struct {
		from custody
		edge string
		to   custody
	}{
		{notHeld, "adoptShards", adopted},
		{notHeld, "startAdoptRecon", reconstructing}, // crash noted, not yet handled: the read starts before the adoption
		{notHeld, "stall", notHeld},
		{notHeld, "handleQReadAck", notHeld},
		{notHeld, "land", notHeld},
		{notHeld, "serveJoin", handedBack},
		{notHeld, "acceptJoin", notHeld},
		{adopted, "adoptShards", adopted},
		{adopted, "startAdoptRecon", reconstructing},
		{adopted, "stall", adopted},
		{adopted, "handleQReadAck", adopted},
		{adopted, "land", adopted},
		{adopted, "serveJoin", handedBack},
		{adopted, "acceptJoin", adopted},
		{reconstructing, "adoptShards", reconstructing},
		{reconstructing, "startAdoptRecon", reconstructing},
		{reconstructing, "stall", reconstructing},
		{reconstructing, "handleQReadAck", reconstructed},
		{reconstructing, "land", reconstructing}, // the group has not answered
		{reconstructing, "serveJoin", handedBack},
		{reconstructing, "acceptJoin", reconstructing},
		{reconstructed, "adoptShards", reconstructed},
		{reconstructed, "startAdoptRecon", reconstructed},
		{reconstructed, "stall", reconstructed},
		{reconstructed, "handleQReadAck", reconstructed},
		{reconstructed, "land", reconstructed},
		{reconstructed, "serveJoin", handedBack},
		{reconstructed, "acceptJoin", adopted},
		{handedBack, "adoptShards", adopted},
		{handedBack, "startAdoptRecon", reconstructing},
		{handedBack, "stall", handedBack},
		{handedBack, "handleQReadAck", handedBack},
		{handedBack, "land", handedBack},
		{handedBack, "serveJoin", handedBack},
		{handedBack, "acceptJoin", handedBack},
	}
	for _, c := range cases {
		n, net := tableNode(t)
		reach[c.from](t, n)
		if got := n.shards[2].custody; got != c.from {
			t.Fatalf("set-up for %s reached %s", names[c.from], names[got])
		}
		parked := len(n.shards[2].stalled)
		stalled := edges[c.edge](t, n)
		s := n.shards[2]
		name := names[c.from] + " --" + c.edge + "--> "
		if s.custody != c.to {
			t.Errorf("%s%s, want %s", name, names[s.custody], names[c.to])
			continue
		}
		if c.edge == "stall" && stalled != (c.to == reconstructing) {
			t.Errorf("%sparked %v", name, stalled)
		}
		if (s.recon != nil) != (s.custody == reconstructing) || len(s.stalled) > 0 && s.custody != reconstructing {
			t.Errorf("%s%s with a quorum read %v and %d frames parked", name, names[s.custody], s.recon != nil, len(s.stalled))
		}
		if s.custody == adopted || s.custody == reconstructed || s.custody == reconstructing {
			if !n.mgr.Manages(obj) {
				t.Errorf("%s%s does not manage the shard", name, names[s.custody])
			}
		}
		if s.custody == handedBack && (n.mgr.Manages(obj) || s.handback == nil) {
			t.Errorf("%s%s still manages the shard, or cached no handback", name, names[s.custody])
		}
		if c.edge == "serveJoin" && parked > 0 {
			// The traffic stalled behind the dropped read goes on to team 2.
			fwd := 0
			for {
				m, ok, _ := net.Endpoint(5).TryRecv()
				if !ok {
					break
				}
				if m.Kind == wire.KindLockReq && m.Obj == uint32(obj) && lockProc(m) == 1 {
					fwd++
				}
			}
			if fwd != parked {
				t.Errorf("%sforwarded %d of %d parked frames to team 2", name, fwd, parked)
			}
		}
	}

	// The own shard: rejoining until every live team has answered, when the
	// answer that completes the set lands it (acceptJoin calls land), home
	// after.
	ack := func(from int) func(*testing.T, *Node) bool {
		return func(t *testing.T, n *Node) bool { must(t, n.acceptJoin(joinAck(from))); return true }
	}
	snap := func(from int) func(*testing.T, *Node) bool {
		return func(t *testing.T, n *Node) bool {
			must(t, n.acceptJoin(&wire.Msg{Kind: wire.KindSnapshot, Src: int32(3 + from), Payload: n.st.Snapshot(0)}))
			return true
		}
	}
	stallOwn := func(_ *testing.T, n *Node) bool {
		return n.stall(wire.GetMsgOf(wire.Msg{Kind: wire.KindLockReq, Src: 1, Obj: uint32(own)}))
	}
	landOwn := func(t *testing.T, n *Node) bool { must(t, n.land(0)); return true }
	for _, c := range []struct {
		name     string
		answered []func(*testing.T, *Node) bool // the set-up's answers
		edge     func(*testing.T, *Node) bool
		from, to custody
	}{
		{"stall", nil, stallOwn, rejoining, rejoining},
		{"acceptJoin", nil, ack(1), rejoining, rejoining},
		{"land", nil, landOwn, rejoining, rejoining},
		{"acceptJoin's last answer", []func(*testing.T, *Node) bool{ack(1), snap(1), ack(2)}, snap(2), rejoining, home},
		{"stall", []func(*testing.T, *Node) bool{ack(1), snap(1), ack(2), snap(2)}, stallOwn, home, home},
		{"acceptJoin", []func(*testing.T, *Node) bool{ack(1), snap(1), ack(2), snap(2)}, ack(1), home, home},
		{"land", []func(*testing.T, *Node) bool{ack(1), snap(1), ack(2), snap(2)}, landOwn, home, home},
	} {
		n, _ := tableNode(t)
		for _, answer := range c.answered {
			answer(t, n)
		}
		if got := n.shards[0].custody; got != c.from {
			t.Fatalf("own shard set-up for %s reached %s", names[c.from], names[got])
		}
		stalled := c.edge(t, n)
		if got := n.shards[0].custody; got != c.to || c.name == "stall" && stalled != (c.from == rejoining) {
			t.Errorf("own %s --%s--> %s (parked %v), want %s", names[c.from], c.name, names[got], stalled, names[c.to])
		}
		if got := n.shards[0].custody; got == home && !n.mgr.Manages(own) {
			t.Errorf("own %s --%s--> home without managing the shard", names[c.from], c.name)
		}
	}
}
