package harness

// Satellite to the delta-exchange work: PR 7's session layer resumes a
// link's FIFO stream across socket deaths (retained frames are replayed
// from the peer's acknowledged count), so the delta acked-version tables
// stay valid across a reconnect — no reset, no base mismatch. This test
// proves that end to end: a full BSYNC game over real loopback sockets
// with every connection repeatedly killed by chaos proxies, delta encoding
// on, must complete with zero delta base mismatches — every delta applied
// against exactly the base the sender assumed, across every kill.
// (Byte-identical convergence of the delta path is asserted by the
// deterministic core and checked-oracle tests; final stores over real
// sockets legitimately differ by the last tick's in-flight tail, delta or
// not.)

import (
	"sync"
	"testing"
	"time"

	"sdso/internal/metrics"
	"sdso/internal/protocol/lookahead"
)

func TestDeltaSurvivesSessionResume(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	const seed = int64(7)
	cfg := resilienceGame(seed)
	proxies, proxyAddrs, lns, err := resilienceMesh(resilienceTeams, seed)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, px := range proxies {
			px.Close()
		}
	}()
	mcs := make([]*metrics.Collector, resilienceTeams)
	for i := range mcs {
		mcs[i] = metrics.NewCollector()
	}
	eps, err := dialResilientMesh(proxyAddrs, lns, mcs)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, resilienceTeams)
	var wg sync.WaitGroup
	for i := 0; i < resilienceTeams; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = lookahead.RunPlayer(lookahead.PlayerConfig{
				Game:              cfg,
				Protocol:          lookahead.BSYNC,
				Endpoint:          eps[i],
				Metrics:           mcs[i],
				DeltaEncode:       true,
				RendezvousTimeout: 100 * time.Millisecond,
				MaxRetransmits:    8,
			})
		}()
	}
	wg.Wait()
	closeAll(eps)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}

	var kills int64
	for _, px := range proxies {
		kills += px.Kills()
	}
	if kills == 0 {
		t.Fatal("the chaos proxies never cut a connection")
	}
	var reconnects, recs, mismatches int
	for _, mc := range mcs {
		s := mc.Snapshot()
		reconnects += s.Reconnects
		recs += s.DeltaRecords
		mismatches += s.DeltaMismatches
	}
	if reconnects == 0 {
		t.Fatalf("%d kills but no session resumes recorded", kills)
	}
	if recs == 0 {
		t.Fatal("delta encoding on but no delta records sent")
	}
	if mismatches != 0 {
		t.Fatalf("%d delta base mismatches across %d session resumes, want 0: "+
			"resumed FIFO delivery must preserve delta-table validity", mismatches, reconnects)
	}
}
