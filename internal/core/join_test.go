package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"sdso/internal/store"
	"sdso/internal/transport"
)

// TestJoinLateComer: two members play in lockstep while a third, configured
// absent at startup, joins the game in progress. The joiner must adopt the
// members' store via snapshots, be scheduled into their exchange lists at
// the granted admission ticks, and converge byte-identically by the final
// tick. Every view must end at the full membership.
func TestJoinLateComer(t *testing.T) {
	const n, ticks = 3, 20
	net := transport.NewMemNetwork(n)
	t.Cleanup(net.Close)
	mk := func(i int, members []int) *Runtime {
		r, err := New(Config{
			Endpoint:          net.Endpoint(i),
			MergeDiffs:        true,
			RendezvousTimeout: 200 * time.Millisecond,
			InitialMembers:    members,
		})
		if err != nil {
			t.Fatalf("New %d: %v", i, err)
		}
		return r
	}
	rts := []*Runtime{mk(0, []int{0, 1}), mk(1, []int{0, 1}), mk(2, []int{2})}

	if !rts[0].peers[2].is(absent) || !rts[2].peers[0].is(absent) {
		t.Fatal("InitialMembers did not mark the missing peers absent")
	}

	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // the founding members
		i, r := i, rts[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = func() error {
				for obj := 0; obj < 2; obj++ {
					if err := r.Share(store.ID(obj), counterBytes(0)); err != nil {
						return err
					}
				}
				// Poll until this member has admitted the joiner (absence
				// cleared by serveJoin), so the game cannot end before the
				// join lands. A real player serves joins the same way, from
				// the recv paths of its ordinary exchanges.
				for deadline := time.Now().Add(5 * time.Second); r.peers[2].is(absent); {
					if time.Now().After(deadline) {
						return errors.New("joiner never arrived")
					}
					r.Poll()
					time.Sleep(time.Millisecond)
				}
				mine := store.ID(r.ID())
				for k := 1; k <= ticks; k++ {
					if err := r.Write(mine, counterBytes(uint64(k))); err != nil {
						return err
					}
					if err := r.Exchange(ExchangeOpts{Resync: true, SFunc: EveryTick}); err != nil {
						return err
					}
				}
				return nil
			}()
		}()
	}
	wg.Add(1)
	go func() { // the late joiner
		defer wg.Done()
		errs[2] = func() error {
			r := rts[2]
			if err := r.Join(1); err != nil {
				return err
			}
			for r.Now() < ticks {
				if err := r.Exchange(ExchangeOpts{Resync: true, SFunc: EveryTick}); err != nil {
					return err
				}
			}
			return nil
		}()
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("join group deadlocked")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("runtime %d: %v", i, err)
		}
	}

	if !rts[2].Store().Equal(rts[0].Store()) || !rts[2].Store().Equal(rts[1].Store()) {
		t.Fatal("joiner's store did not converge with the members'")
	}
	for i, r := range rts {
		view := r.View()
		if len(view.Members) != n {
			t.Fatalf("runtime %d view = %v, want all %d members", i, view.Members, n)
		}
		if r.epoch == 0 {
			t.Fatalf("runtime %d epoch never advanced across the join", i)
		}
	}
	if rts[0].peers[2].is(absent) || rts[2].peers[0].is(absent) || rts[2].peers[1].is(absent) {
		t.Fatal("absence flags survived the join")
	}
}

// TestJoinRetransmitsThenSucceeds: a join whose first request round is lost
// recovers by retransmitting within its timeout budget. The member serves a
// retransmitted request idempotently — same admission tick back.
func TestJoinRetransmitsThenSucceeds(t *testing.T) {
	net := transport.NewMemNetwork(2)
	t.Cleanup(net.Close)
	member, err := New(Config{
		Endpoint:          net.Endpoint(0),
		RendezvousTimeout: 100 * time.Millisecond,
		InitialMembers:    []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := member.Share(1, counterBytes(7)); err != nil {
		t.Fatal(err)
	}
	joiner, err := New(Config{
		Endpoint:          net.Endpoint(1),
		RendezvousTimeout: 20 * time.Millisecond,
		InitialMembers:    []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}

	joinErr := make(chan error, 1)
	go func() { joinErr <- joiner.Join(1) }()
	// The member stays silent past the joiner's first timeout, then serves
	// whatever requests (original plus retransmissions) have queued up.
	time.Sleep(30 * time.Millisecond)
	deadline := time.After(5 * time.Second)
	for {
		member.Poll()
		select {
		case err := <-joinErr:
			if err != nil {
				t.Fatalf("Join: %v", err)
			}
			if !joiner.Store().Has(1) {
				t.Fatal("joiner did not receive the member's snapshot")
			}
			if v, _ := joiner.Store().Get(1); string(v) != string(counterBytes(7)) {
				t.Fatal("snapshot state diverged")
			}
			return
		case <-deadline:
			t.Fatal("join never completed")
		case <-time.After(time.Millisecond):
		}
	}
}

// TestJoinFailedNoPeers: a joiner whose peers never answer exhausts its
// retransmission budget, evicts them, and reports ErrJoinFailed.
func TestJoinFailedNoPeers(t *testing.T) {
	net := transport.NewMemNetwork(2)
	t.Cleanup(net.Close)
	joiner, err := New(Config{
		Endpoint:          net.Endpoint(1),
		RendezvousTimeout: 5 * time.Millisecond,
		InitialMembers:    []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := joiner.Join(1); !errors.Is(err, ErrJoinFailed) {
		t.Fatalf("Join = %v, want ErrJoinFailed", err)
	}
}

// TestJoinRequiresTimeout: joining without failure detection configured is
// refused — a joiner cannot wait forever on peers that may be dead.
func TestJoinRequiresTimeout(t *testing.T) {
	net := transport.NewMemNetwork(2)
	t.Cleanup(net.Close)
	r, err := New(Config{Endpoint: net.Endpoint(0), InitialMembers: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Join(1); err == nil || errors.Is(err, ErrJoinFailed) {
		t.Fatalf("Join without RendezvousTimeout = %v, want a config error", err)
	}
}

// TestSentinelErrors: the exported sentinels match through errors.Is on the
// paths that produce them — a timed-out synchronous wait reports both
// ErrSyncTimeout and ErrEvicted (the wait gave up because the peer was
// presumed dead).
func TestSentinelErrors(t *testing.T) {
	net := transport.NewMemNetwork(2)
	t.Cleanup(net.Close)
	r, err := New(Config{
		Endpoint:          net.Endpoint(0),
		RendezvousTimeout: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Share(1, counterBytes(0)); err != nil {
		t.Fatal(err)
	}
	err = r.SyncGet(1, 1) // peer 1 never answers
	if err == nil {
		t.Fatal("SyncGet against a silent peer succeeded")
	}
	if !errors.Is(err, ErrSyncTimeout) {
		t.Errorf("err = %v, want match for ErrSyncTimeout", err)
	}
	if !errors.Is(err, ErrEvicted) {
		t.Errorf("err = %v, want match for ErrEvicted", err)
	}
}
