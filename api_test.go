package sdso

import (
	"net"
	"sync"
	"testing"
	"time"
)

// TestPublicAPIOptionsAndAccessors exercises the option setters and small
// accessors end to end.
func TestPublicAPIOptionsAndAccessors(t *testing.T) {
	eps := LocalGroup(2)
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	rts := make([]*Runtime, 2)
	for i := 0; i < 2; i++ {
		rt, err := New(eps[i], WithDiffMerging(false))
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = rt
	}
	if rts[0].N() != 2 || rts[1].ID() != 1 {
		t.Errorf("group shape: N=%d ID=%d", rts[0].N(), rts[1].ID())
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt := rts[i]
			if err := rt.Share(1, []byte{0}); err != nil {
				t.Error(err)
				return
			}
			if i == 0 {
				if err := rt.Write(1, []byte{9}); err != nil {
					t.Error(err)
					return
				}
			}
			if err := rt.Exchange(ExchangeOptions{Resync: true, SFunc: EveryTick}); err != nil {
				t.Error(err)
				return
			}
			if err := rt.Done(i == 0); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()

	if v, err := rts[1].Version(1); err != nil || v != 1 {
		t.Errorf("Version = %d, %v", v, err)
	}
	// Peer-completion observations: each side announced Done; pump the
	// queued notices.
	rts[0].Poll()
	rts[1].Poll()
	if !rts[1].PeerDone(0) {
		t.Error("peer 1 did not observe peer 0's Done")
	}
	if got := rts[1].LivePeers(); len(got) != 0 {
		t.Errorf("LivePeers = %v, want none", got)
	}
	if !rts[1].GameOver() {
		t.Error("winning Done did not set GameOver")
	}
	if eps[0].Elapsed() < 0 {
		t.Error("negative elapsed time")
	}
}

// TestPublicAPIBroadcastMode exercises How: Broadcast through the facade.
func TestPublicAPIBroadcastMode(t *testing.T) {
	const n = 3
	eps := LocalGroup(n)
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	rts := make([]*Runtime, n)
	for i := range rts {
		rt, err := New(eps[i])
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = rt
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt := rts[i]
			if err := rt.Share(1, []byte{0}); err != nil {
				t.Error(err)
				return
			}
			if i == 0 {
				if err := rt.Write(1, []byte{42}); err != nil {
					t.Error(err)
					return
				}
			}
			// A sparse schedule would not rendezvous for 10 ticks, but
			// broadcast forces everything out now.
			sparse := func(peer int, now int64, _ []int64) int64 { return now + 10 }
			if err := rt.Exchange(ExchangeOptions{Resync: true, How: Broadcast, SFunc: sparse}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		b, err := rts[i].Read(1)
		if err != nil || b[0] != 42 {
			t.Errorf("proc %d object = %v, %v", i, b, err)
		}
	}
}

// TestPublicAPIOverTCP drives the facade's TCP constructor.
func TestPublicAPIOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	addrs := make([]string, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	var wg sync.WaitGroup
	vals := make([]byte, 2)
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep, err := ConnectTCP(i, addrs)
			if err != nil {
				errs[i] = err
				return
			}
			defer ep.Close()
			rt, err := New(ep)
			if err != nil {
				errs[i] = err
				return
			}
			if err := rt.Share(1, []byte{0}); err != nil {
				errs[i] = err
				return
			}
			if i == 0 {
				if err := rt.Write(1, []byte{7}); err != nil {
					errs[i] = err
					return
				}
			}
			if err := rt.Exchange(ExchangeOptions{Resync: true, SFunc: EveryTick}); err != nil {
				errs[i] = err
				return
			}
			b, err := rt.Read(1)
			if err != nil {
				errs[i] = err
				return
			}
			vals[i] = b[0]
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	if vals[0] != 7 || vals[1] != 7 {
		t.Errorf("values = %v, want [7 7]", vals)
	}
	if _, err := ConnectTCP(9, addrs); err == nil {
		t.Error("out-of-range id accepted")
	}
}

// TestPublicAPIPendingAndPuts covers SyncGet/AsyncPut through the facade.
func TestPublicAPIPendingAndPuts(t *testing.T) {
	eps := LocalGroup(2)
	defer func() {
		for _, ep := range eps {
			ep.Close()
		}
	}()
	a, err := New(eps[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(eps[1])
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range []*Runtime{a, b} {
		if err := rt.Share(5, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Write(5, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if got := a.PendingObjects(1); len(got) != 1 || got[0] != 5 {
		t.Errorf("PendingObjects = %v", got)
	}
	done := make(chan error, 1)
	go func() { done <- b.SyncGet(5, 0) }()
	// a serves the request by pumping its inbox until the getter returns.
	for i := 0; i < 500; i++ {
		a.Poll()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			got, _ := b.Read(5)
			if got[0] != 9 {
				t.Errorf("SyncGet value = %v", got)
			}
			return
		default:
			time.Sleep(time.Millisecond)
		}
	}
	t.Fatal("SyncGet never completed")
}
