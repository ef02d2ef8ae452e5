package ec

import (
	"sync"
	"testing"
	"time"

	"sdso/internal/game"
	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/transport"
	"sdso/internal/wire"
)

// quorumNodes builds one EC node per team over an in-memory network with
// crash tolerance on and the given replication factor, without running the
// app/service loops — the tests drive the service handlers directly for a
// deterministic message order.
func quorumNodes(t *testing.T, teams, qf int) ([]*Node, []transport.Endpoint) {
	t.Helper()
	net := transport.NewMemNetwork(2 * teams)
	t.Cleanup(net.Close)
	cfg := game.DefaultConfig(teams, 1)
	nodes := make([]*Node, teams)
	apps := make([]transport.Endpoint, teams)
	for i := 0; i < teams; i++ {
		apps[i] = net.Endpoint(i)
		node, err := New(NodeConfig{
			Game:           cfg,
			App:            apps[i],
			Svc:            net.Endpoint(teams + i),
			Metrics:        metrics.NewCollector(),
			SuspectTimeout: 50 * time.Millisecond,
			QuorumF:        qf,
		})
		if err != nil {
			t.Fatalf("New(%d): %v", i, err)
		}
		nodes[i] = node
	}
	return nodes, apps
}

// pumpSvc drains every service endpoint, dispatching quorum and lock
// traffic through the same handlers RunService uses, until quiescent.
func pumpSvc(t *testing.T, nodes []*Node) {
	t.Helper()
	for progress := true; progress; {
		progress = false
		for i, node := range nodes {
			for {
				m, ok, err := node.cfg.Svc.TryRecv()
				if err != nil || !ok {
					break
				}
				progress = true
				switch m.Kind {
				case wire.KindQWrite:
					err = node.handleQWrite(m)
				case wire.KindQWriteAck:
					err = node.handleQWriteAck(m)
				case wire.KindQRead:
					err = node.handleQRead(m)
				case wire.KindQReadAck:
					err = node.handleQReadAck(m)
				case wire.KindCrash:
					// The tests install crash knowledge explicitly.
				default:
					t.Fatalf("svc %d: unexpected %v in pump", i, m.Kind)
				}
				if err != nil {
					t.Fatalf("svc %d: %v", i, err)
				}
			}
		}
	}
}

// drainGrants pops every pending lock grant off an application endpoint.
func drainGrants(t *testing.T, ep transport.Endpoint) []*wire.Msg {
	t.Helper()
	var out []*wire.Msg
	for {
		m, ok, err := ep.TryRecv()
		if err != nil || !ok {
			return out
		}
		if m.Kind == wire.KindLockGrant {
			out = append(out, m)
		}
	}
}

// crash installs crash knowledge of dead at node and runs the failover
// machinery the service loop would run on a KindCrash announcement.
func crash(t *testing.T, n *Node, dead int) {
	t.Helper()
	n.noteCrash(dead, 0)
	n.mu.Lock()
	n.mgr.PurgeProc(dead)
	n.mu.Unlock()
	n.adoptShards()
	if err := n.qPurgeDead(dead); err != nil {
		t.Fatal(err)
	}
	if err := n.startAdoptRecon(); err != nil {
		t.Fatal(err)
	}
}

// TestQuorumFailoverPreservesOwnership is the acceptance pair: after the
// manager of an object crashes, the successor's first grant must name the
// freshest (owner, version) in quorum mode — and provably regresses to
// version 0 in default mode, which is the write loss replication removes.
func TestQuorumFailoverPreservesOwnership(t *testing.T) {
	const teams = 3
	obj := store.ID(0) // ManagerFor(0, 3) == 0
	for _, qf := range []int{0, 1} {
		nodes, apps := quorumNodes(t, teams, qf)
		n0, n1 := nodes[0], nodes[1]

		// Team 2 write-locks obj at manager 0, writes, and releases dirty
		// at version 5: team 2 now owns the freshest copy.
		if err := n0.handleLockReq(&wire.Msg{Kind: wire.KindLockReq, Src: 2, Obj: uint32(obj), Mode: wire.ModeWrite}); err != nil {
			t.Fatal(err)
		}
		if len(drainGrants(t, apps[2])) != 1 {
			t.Fatal("initial grant missing")
		}
		if err := n0.handleLockRelease(&wire.Msg{Kind: wire.KindLockRelease, Src: 2, Obj: uint32(obj), Ints: []int64{1, 5}}); err != nil {
			t.Fatal(err)
		}
		pumpSvc(t, nodes)
		if qf > 0 {
			n1.mu.Lock()
			rec, ok := n1.qrep[obj]
			n1.mu.Unlock()
			if !ok || rec.owner != 2 || rec.version != 5 {
				t.Fatalf("backup record = %+v, %v; want owner 2 version 5", rec, ok)
			}
		}

		// Manager 0 crashes; team 1 adopts its shard and serves the next
		// request (after reconstruction, in quorum mode).
		crash(t, n1, 0)
		pumpSvc(t, nodes)
		if err := n1.handleLockReq(&wire.Msg{Kind: wire.KindLockReq, Src: 1, Obj: uint32(obj), Mode: wire.ModeWrite}); err != nil {
			t.Fatal(err)
		}
		grants := drainGrants(t, apps[1])
		if len(grants) != 1 {
			t.Fatalf("post-failover grant count = %d, want 1", len(grants))
		}
		owner, version := int(grants[0].Ints[0]), grants[0].Ints[1]
		if qf > 0 {
			if owner != 2 || version != 5 {
				t.Fatalf("quorum mode: post-failover grant names (owner %d, v%d), want (2, 5)", owner, version)
			}
			if n1.mc.Snapshot().ReadRepairs == 0 {
				t.Error("reconstruction repaired records without counting a read repair")
			}
		} else if version != 0 {
			t.Fatalf("default mode: post-failover grant carries v%d; the version-0 regress this test documents has disappeared — update the quorum docs", version)
		}
	}
}

// TestQuorumStallsLocksDuringReconstruction: between adoption and the f+1st
// contribution, lock traffic for the adopted shard must stall — serving
// from a version-0 shard would regress exactly like the unreplicated mode.
func TestQuorumStallsLocksDuringReconstruction(t *testing.T) {
	const teams = 3
	obj := store.ID(0)
	nodes, apps := quorumNodes(t, teams, 1)
	n0, n1 := nodes[0], nodes[1]

	if err := n0.handleLockReq(&wire.Msg{Kind: wire.KindLockReq, Src: 2, Obj: uint32(obj), Mode: wire.ModeWrite}); err != nil {
		t.Fatal(err)
	}
	drainGrants(t, apps[2])
	if err := n0.handleLockRelease(&wire.Msg{Kind: wire.KindLockRelease, Src: 2, Obj: uint32(obj), Ints: []int64{1, 7}}); err != nil {
		t.Fatal(err)
	}
	pumpSvc(t, nodes)

	crash(t, n1, 0) // QReads are now in flight, NOT yet answered
	req := &wire.Msg{Kind: wire.KindLockReq, Src: 1, Obj: uint32(obj), Mode: wire.ModeWrite}
	if !n1.stall(req) {
		t.Fatal("lock request served mid-reconstruction")
	}
	if got := drainGrants(t, apps[1]); len(got) != 0 {
		t.Fatalf("grant escaped during reconstruction: %v", got)
	}
	pumpSvc(t, nodes) // deliver the QRead round; completion replays the stall
	grants := drainGrants(t, apps[1])
	if len(grants) != 1 {
		t.Fatalf("replayed grant count = %d, want 1", len(grants))
	}
	if owner, version := int(grants[0].Ints[0]), grants[0].Ints[1]; owner != 2 || version != 7 {
		t.Fatalf("replayed grant names (owner %d, v%d), want (2, 7)", owner, version)
	}
}

// TestQuorumDefersGrantsUntilAcked: a dirty release's unblocked grants must
// not reach the next holder before the ownership record is on f+1 group
// members — otherwise a manager crash between grant and replication loses
// the version the new holder is already building on.
func TestQuorumDefersGrantsUntilAcked(t *testing.T) {
	const teams = 3
	obj := store.ID(0)
	nodes, apps := quorumNodes(t, teams, 1)
	n0 := nodes[0]

	if err := n0.handleLockReq(&wire.Msg{Kind: wire.KindLockReq, Src: 2, Obj: uint32(obj), Mode: wire.ModeWrite}); err != nil {
		t.Fatal(err)
	}
	drainGrants(t, apps[2])
	// Team 1 queues behind team 2's write lock.
	if err := n0.handleLockReq(&wire.Msg{Kind: wire.KindLockReq, Src: 1, Obj: uint32(obj), Mode: wire.ModeWrite}); err != nil {
		t.Fatal(err)
	}
	if got := drainGrants(t, apps[1]); len(got) != 0 {
		t.Fatal("queued request granted immediately")
	}
	if err := n0.handleLockRelease(&wire.Msg{Kind: wire.KindLockRelease, Src: 2, Obj: uint32(obj), Ints: []int64{1, 9}}); err != nil {
		t.Fatal(err)
	}
	// The release unblocked team 1's grant, but no backup has acked yet.
	if got := drainGrants(t, apps[1]); len(got) != 0 {
		t.Fatal("grant escaped before the ownership record was replicated")
	}
	pumpSvc(t, nodes)
	grants := drainGrants(t, apps[1])
	if len(grants) != 1 {
		t.Fatalf("grant count after acks = %d, want 1", len(grants))
	}
	if owner, version := int(grants[0].Ints[0]), grants[0].Ints[1]; owner != 2 || version != 9 {
		t.Fatalf("deferred grant names (owner %d, v%d), want (2, 9)", owner, version)
	}
	if n0.mc.Snapshot().QuorumRounds == 0 {
		t.Error("replication ran without counting a quorum round")
	}
}

// TestQuorumGameCompletes: a full EC game with replication on must run to
// completion — every dirty release now waits on backup acks, and a deadlock
// in that path would hang the game, not just lose a version.
func TestQuorumGameCompletes(t *testing.T) {
	cfg := game.DefaultConfig(3, 1)
	cfg.MaxTicks = 30
	cfg.Seed = 11
	const n = 3
	net := transport.NewMemNetwork(2 * n)
	t.Cleanup(net.Close)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		node, err := New(NodeConfig{
			Game:           cfg,
			App:            net.Endpoint(i),
			Svc:            net.Endpoint(n + i),
			Metrics:        metrics.NewCollector(),
			SuspectTimeout: 100 * time.Millisecond,
			QuorumF:        1,
		})
		if err != nil {
			t.Fatalf("New(%d): %v", i, err)
		}
		nodes[i] = node
	}
	appErrs := make([]error, n)
	svcErrs := make([]error, n)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			i := i
			wg.Add(2)
			go func() { defer wg.Done(); svcErrs[i] = nodes[i].RunService() }()
			go func() { defer wg.Done(); _, appErrs[i] = nodes[i].RunApp() }()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("quorum-replicated EC game deadlocked")
	}
	rounds := 0
	for i := 0; i < n; i++ {
		if appErrs[i] != nil {
			t.Fatalf("app %d: %v", i, appErrs[i])
		}
		if svcErrs[i] != nil {
			t.Fatalf("svc %d: %v", i, svcErrs[i])
		}
		rounds += nodes[i].mc.Snapshot().QuorumRounds
	}
	if rounds == 0 {
		t.Fatal("a full game produced no replication rounds — dirty releases are not being replicated")
	}
}

// TestQuorumRequiresFailureDetection: replication exists for failover, so
// configuring it without a suspect timeout is a mistake, not a mode.
func TestQuorumRequiresFailureDetection(t *testing.T) {
	net := transport.NewMemNetwork(2)
	t.Cleanup(net.Close)
	_, err := New(NodeConfig{
		Game:    game.DefaultConfig(1, 1),
		App:     net.Endpoint(0),
		Svc:     net.Endpoint(1),
		QuorumF: 1,
	})
	if err == nil {
		t.Fatal("QuorumF without SuspectTimeout accepted")
	}
}
