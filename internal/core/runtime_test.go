package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sdso/internal/store"
	"sdso/internal/transport"
)

// runGroup runs body for each of n runtimes over an in-memory network and
// fails the test on any returned error.
func runGroup(t *testing.T, n int, mergeDiffs bool, body func(r *Runtime) error) []*Runtime {
	t.Helper()
	net := transport.NewMemNetwork(n)
	t.Cleanup(net.Close)
	rts := make([]*Runtime, n)
	for i := 0; i < n; i++ {
		r, err := New(Config{Endpoint: net.Endpoint(i), MergeDiffs: mergeDiffs})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		rts[i] = r
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = body(rts[i])
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("group deadlocked")
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("runtime %d: %v", i, err)
		}
	}
	return rts
}

func counterBytes(v uint64) []byte {
	b := make([]byte, 8)
	binary.BigEndian.PutUint64(b, v)
	return b
}

// TestLockstepConvergence is the BSYNC shape: every process owns one object,
// increments it each tick, and exchanges with everyone every tick. All
// replicas must agree with the sequential outcome.
func TestLockstepConvergence(t *testing.T) {
	const n, ticks = 4, 10
	rts := runGroup(t, n, true, func(r *Runtime) error {
		for obj := 0; obj < n; obj++ {
			if err := r.Share(store.ID(obj), counterBytes(0)); err != nil {
				return err
			}
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
	})
	for i := 1; i < n; i++ {
		if !rts[0].Store().Equal(rts[i].Store()) {
			t.Fatalf("replica %d diverged from replica 0", i)
		}
	}
	for obj := 0; obj < n; obj++ {
		b, err := rts[0].Store().Get(store.ID(obj))
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.BigEndian.Uint64(b); got != ticks {
			t.Errorf("object %d = %d, want %d", obj, got, ticks)
		}
	}
	if got := rts[0].Now(); got != ticks {
		t.Errorf("logical clock = %d, want %d", got, ticks)
	}
}

// TestLockstepReadsPreviousTick verifies the temporal contract: at tick k a
// process sees every peer's tick-(k-1) write, and never a tick-k write from
// a peer that hasn't exchanged yet (early messages are buffered, not
// applied).
func TestLockstepReadsPreviousTick(t *testing.T) {
	const n, ticks = 3, 8
	type obs struct {
		tick int64
		vals []uint64
	}
	observations := make([][]obs, n)
	runGroup(t, n, true, func(r *Runtime) error {
		for obj := 0; obj < n; obj++ {
			if err := r.Share(store.ID(obj), counterBytes(0)); err != nil {
				return err
			}
		}
		mine := store.ID(r.ID())
		for k := 1; k <= ticks; k++ {
			if err := r.Write(mine, counterBytes(uint64(k))); err != nil {
				return err
			}
			if err := r.Exchange(ExchangeOpts{Resync: true, SFunc: EveryTick}); err != nil {
				return err
			}
			vals := make([]uint64, n)
			for obj := 0; obj < n; obj++ {
				b, err := r.Store().Get(store.ID(obj))
				if err != nil {
					return err
				}
				vals[obj] = binary.BigEndian.Uint64(b)
			}
			observations[r.ID()] = append(observations[r.ID()], obs{tick: r.Now(), vals: vals})
		}
		return nil
	})
	for id, seq := range observations {
		for _, o := range seq {
			for obj, v := range o.vals {
				// After the rendezvous at tick k, every replica holds
				// exactly the peer's tick-k value: the exchange is
				// synchronous, so writes of the same tick are visible,
				// and tick-(k+1) writes cannot be (they don't exist
				// yet when the rendezvous completes).
				if int64(v) != o.tick {
					t.Fatalf("proc %d at tick %d saw object %d = %d", id, o.tick, obj, v)
				}
			}
		}
	}
}

// TestSparseSchedule exercises MSYNC-shaped pairwise schedules: rendezvous
// every `gap` ticks, buffered diffs delivered (merged) at the rendezvous.
func TestSparseSchedule(t *testing.T) {
	const n, ticks, gap = 3, 12, 3
	sfunc := func(peer int, now int64, _ []int64) int64 { return now + gap }
	rts := runGroup(t, n, true, func(r *Runtime) error {
		for obj := 0; obj < n; obj++ {
			if err := r.Share(store.ID(obj), counterBytes(0)); err != nil {
				return err
			}
		}
		mine := store.ID(r.ID())
		for k := 1; k <= ticks; k++ {
			if err := r.Write(mine, counterBytes(uint64(k))); err != nil {
				return err
			}
			if err := r.Exchange(ExchangeOpts{Resync: true, SFunc: sfunc}); err != nil {
				return err
			}
		}
		return nil
	})
	// Last rendezvous happened at tick 12 (1, 4, 7, 10 are rendezvous
	// ticks... first exchange at tick 1, then 1+3=4, 7, 10; ticks 11,12
	// buffered). Everyone's copy of peer objects holds the tick-10 value.
	for id, r := range rts {
		for obj := 0; obj < n; obj++ {
			b, _ := r.Store().Get(store.ID(obj))
			got := binary.BigEndian.Uint64(b)
			want := uint64(10)
			if obj == id {
				want = ticks // own object is always current
			}
			if got != want {
				t.Errorf("proc %d object %d = %d, want %d", id, obj, got, want)
			}
		}
	}
}

// TestStartIsRendezvousZero: New schedules every member at tick 1; Start
// rewrites each live member's first rendezvous from an s-function over the
// start (tick 0, no beacon), leaves absent peers alone, clamps to tick 1,
// and does nothing once the clock has moved. A group started with a gap
// of 3 first meets at tick 3, so after 12 ticks every replica is current.
func TestStartIsRendezvousZero(t *testing.T) {
	net := transport.NewMemNetwork(4)
	t.Cleanup(net.Close)
	r, err := New(Config{Endpoint: net.Endpoint(0), InitialMembers: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	next := func(peer int) int64 {
		if tick, ok := r.NextExchange(peer); ok {
			return tick
		}
		return -1
	}
	if next(1) != 1 || next(2) != 1 || next(3) != -1 {
		t.Fatalf("New scheduled peers 1, 2, 3 at %d, %d, %d; want 1, 1 and the absent one unscheduled", next(1), next(2), next(3))
	}
	r.Start(func(peer int, now int64, beacon []int64) int64 {
		if now != 0 || beacon != nil {
			t.Errorf("the start's s-function got now %d, beacon %v; want 0 and none", now, beacon)
		}
		return now + int64(peer) - 1 // peer 1 asks for tick 0: clamped
	})
	if next(1) != 1 || next(2) != 1 || next(3) != -1 {
		t.Fatalf("after Start peers 1, 2, 3 are at %d, %d, %d; want 1, 1, unscheduled", next(1), next(2), next(3))
	}
	r.Start(func(peer int, now int64, _ []int64) int64 { return now + int64(3*peer) })
	if next(1) != 3 || next(2) != 6 || next(3) != -1 {
		t.Fatalf("after Start peers 1, 2, 3 are at %d, %d, %d; want 3, 6, unscheduled", next(1), next(2), next(3))
	}

	const n, ticks, gap = 3, 12, 3
	sfunc := func(peer int, now int64, _ []int64) int64 { return now + gap }
	rts := runGroup(t, n, true, func(r *Runtime) error {
		for obj := 0; obj < n; obj++ {
			if err := r.Share(store.ID(obj), counterBytes(0)); err != nil {
				return err
			}
		}
		r.Start(sfunc)
		mine := store.ID(r.ID())
		for k := 1; k <= ticks; k++ {
			if err := r.Write(mine, counterBytes(uint64(k))); err != nil {
				return err
			}
			if err := r.Exchange(ExchangeOpts{Resync: true, SFunc: sfunc}); err != nil {
				return err
			}
			r.Start(EveryTick) // the clock has moved: no effect
			for peer := 0; peer < n; peer++ {
				if tick, ok := r.NextExchange(peer); peer != r.ID() && (!ok || tick != (int64(k)/gap+1)*gap) {
					return fmt.Errorf("after tick %d the rendezvous with %d is at %d (%v), want %d", k, peer, tick, ok, (int64(k)/gap+1)*gap)
				}
			}
		}
		return nil
	})
	for id, r := range rts {
		for obj := 0; obj < n; obj++ {
			b, _ := r.Store().Get(store.ID(obj))
			if got := binary.BigEndian.Uint64(b); got != ticks {
				t.Errorf("proc %d object %d = %d, want %d: the last rendezvous is tick %d", id, obj, got, ticks, ticks)
			}
		}
	}
}

// TestSendDataFilter withholds data from one peer; the diffs stay buffered
// and arrive once the filter opens.
func TestSendDataFilter(t *testing.T) {
	const n = 2
	rts := runGroup(t, n, true, func(r *Runtime) error {
		if err := r.Share(1, counterBytes(0)); err != nil {
			return err
		}
		if r.ID() == 0 {
			for k := 1; k <= 3; k++ {
				if err := r.Write(1, counterBytes(uint64(k))); err != nil {
					return err
				}
				filter := func(peer int) bool { return k == 3 } // closed until tick 3
				if err := r.Exchange(ExchangeOpts{Resync: true, SFunc: EveryTick, SendData: filter}); err != nil {
					return err
				}
			}
			return nil
		}
		for k := 1; k <= 3; k++ {
			if err := r.Exchange(ExchangeOpts{Resync: true, SFunc: EveryTick}); err != nil {
				return err
			}
			b, _ := r.Store().Get(1)
			v := binary.BigEndian.Uint64(b)
			if k < 3 && v != 0 {
				return fmt.Errorf("tick %d: filtered data leaked early (saw %d)", k, v)
			}
			if k == 3 && v != 3 {
				return fmt.Errorf("tick 3: want merged value 3, got %d", v)
			}
		}
		return nil
	})
	// The writer sent exactly one DATA message (merged at tick 3).
	if got := rts[0].Metrics().Snapshot().DataMsgs(); got != 1 {
		t.Errorf("writer data messages = %d, want 1 (merged)", got)
	}
}

// TestBeaconsFlowBothWays checks OnBeacon delivery of rendezvous beacons.
func TestBeaconsFlowBothWays(t *testing.T) {
	const n = 2
	var mu sync.Mutex
	seen := make(map[int][]int64)
	net := transport.NewMemNetwork(n)
	defer net.Close()
	rts := make([]*Runtime, n)
	for i := 0; i < n; i++ {
		i := i
		r, err := New(Config{
			Endpoint: net.Endpoint(i),
			OnBeacon: func(peer int, beacon []int64) {
				mu.Lock()
				defer mu.Unlock()
				seen[i] = append([]int64(nil), beacon...)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = r
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rts[i]
			if err := r.Share(1, nil); err != nil {
				t.Error(err)
				return
			}
			opts := ExchangeOpts{
				Resync: true,
				SFunc:  EveryTick,
				Beacon: func(int) []int64 { return []int64{int64(r.ID()) * 100, r.Now()} },
			}
			if err := r.Exchange(opts); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := seen[0]; len(got) != 2 || got[0] != 100 {
		t.Errorf("proc 0 saw beacon %v, want [100 1]", got)
	}
	if got := seen[1]; len(got) != 2 || got[0] != 0 {
		t.Errorf("proc 1 saw beacon %v, want [0 1]", got)
	}
}

// TestDoneReleasesWaiters: one process finishes early; the others keep
// exchanging among themselves without blocking on the departed peer.
func TestDoneReleasesWaiters(t *testing.T) {
	const n, ticks = 3, 6
	rts := runGroup(t, n, true, func(r *Runtime) error {
		if err := r.Share(1, counterBytes(0)); err != nil {
			return err
		}
		if r.ID() == 0 {
			// Participate for 2 ticks, then leave.
			for k := 1; k <= 2; k++ {
				if err := r.Exchange(ExchangeOpts{Resync: true, SFunc: EveryTick}); err != nil {
					return err
				}
			}
			return r.Done(false)
		}
		for k := 1; k <= ticks; k++ {
			if r.ID() == 1 {
				if err := r.Write(1, counterBytes(uint64(k))); err != nil {
					return err
				}
			}
			if err := r.Exchange(ExchangeOpts{Resync: true, SFunc: EveryTick}); err != nil {
				return err
			}
		}
		return nil
	})
	if !rts[0].PeerDone(0) == false { // proc 0 is itself
		t.Log("self-done not tracked via PeerDone (expected)")
	}
	for _, id := range []int{1, 2} {
		r := rts[id]
		if !r.PeerDone(0) {
			t.Errorf("proc %d did not observe proc 0's DONE", id)
		}
		if got := r.LivePeers(); len(got) != 1 {
			t.Errorf("proc %d live peers = %v", id, got)
		}
		b, _ := r.Store().Get(1)
		if got := binary.BigEndian.Uint64(b); got != ticks {
			t.Errorf("proc %d object = %d, want %d", id, got, ticks)
		}
	}
	if err := rts[0].Exchange(ExchangeOpts{}); !errors.Is(err, ErrDone) {
		t.Errorf("Exchange after Done = %v, want ErrDone", err)
	}
	if err := rts[0].Done(false); !errors.Is(err, ErrDone) {
		t.Errorf("second Done = %v, want ErrDone", err)
	}
}

// TestDoneFlushesFinalWrites: a departing process's last buffered writes
// reach peers before the DONE.
func TestDoneFlushesFinalWrites(t *testing.T) {
	const n = 2
	rts := runGroup(t, n, true, func(r *Runtime) error {
		if err := r.Share(1, counterBytes(0)); err != nil {
			return err
		}
		if r.ID() == 0 {
			if err := r.Exchange(ExchangeOpts{Resync: true, SFunc: EveryTick}); err != nil {
				return err
			}
			if err := r.Write(1, counterBytes(42)); err != nil {
				return err
			}
			return r.Done(false)
		}
		// Peer ticks until it observes the final value or gives up.
		for k := 1; k <= 5; k++ {
			if err := r.Exchange(ExchangeOpts{Resync: true, SFunc: EveryTick}); err != nil {
				return err
			}
			if r.PeerDone(0) {
				break
			}
		}
		return nil
	})
	b, _ := rts[1].Store().Get(1)
	if got := binary.BigEndian.Uint64(b); got != 42 {
		t.Errorf("final write lost: object = %d, want 42", got)
	}
}

func TestPutsAndGets(t *testing.T) {
	const n = 2
	runGroup(t, n, true, func(r *Runtime) error {
		if err := r.Share(1, counterBytes(0)); err != nil {
			return err
		}
		if err := r.Share(2, counterBytes(0)); err != nil {
			return err
		}
		switch r.ID() {
		case 0:
			if err := r.Write(1, counterBytes(7)); err != nil {
				return err
			}
			if err := r.SyncPut(1, 1); err != nil { // push with ack
				return err
			}
			if err := r.Write(2, counterBytes(9)); err != nil {
				return err
			}
			if err := r.AsyncPut(2, 1); err != nil { // fire and forget
				return err
			}
			// Serve the peer's SyncGet for object 2 (the AsyncPut reply
			// path may already satisfy it; the explicit request makes
			// the test deterministic).
			m, err := r.ep.Recv()
			if err != nil {
				return err
			}
			r.dispatch(m, false)
			return nil
		default:
			// Wait for the pushed object 1.
			for {
				b, _ := r.Store().Get(1)
				if binary.BigEndian.Uint64(b) == 7 {
					break
				}
				m, err := r.ep.Recv()
				if err != nil {
					return err
				}
				r.dispatch(m, false)
			}
			if err := r.SyncGet(2, 0); err != nil {
				return err
			}
			b, _ := r.Store().Get(2)
			if got := binary.BigEndian.Uint64(b); got != 9 {
				return fmt.Errorf("SyncGet object 2 = %d, want 9", got)
			}
			return nil
		}
	})
}

func TestAsyncGetAppliesOnArrival(t *testing.T) {
	const n = 2
	runGroup(t, n, true, func(r *Runtime) error {
		if err := r.Share(1, counterBytes(0)); err != nil {
			return err
		}
		if r.ID() == 0 {
			if err := r.Write(1, counterBytes(5)); err != nil {
				return err
			}
			// Serve exactly one ObjReq.
			m, err := r.ep.Recv()
			if err != nil {
				return err
			}
			r.dispatch(m, false)
			return nil
		}
		if err := r.AsyncGet(1, 0); err != nil {
			return err
		}
		// Pump until the reply lands.
		for {
			b, _ := r.Store().Get(1)
			if binary.BigEndian.Uint64(b) == 5 {
				return nil
			}
			m, err := r.ep.Recv()
			if err != nil {
				return err
			}
			r.dispatch(m, false)
		}
	})
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without endpoint should fail")
	}
	net := transport.NewMemNetwork(1)
	defer net.Close()
	r, err := New(Config{Endpoint: net.Endpoint(0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Exchange(ExchangeOpts{Resync: true}); !errors.Is(err, ErrNeedsSFunc) {
		t.Errorf("resync without sfunc = %v", err)
	}
	if err := r.Write(9, []byte("x")); err == nil {
		t.Error("Write to unshared object should fail")
	}
	if err := r.Share(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.Share(1, nil); err == nil {
		t.Error("duplicate Share should fail")
	}
}

func TestBadSFuncRejected(t *testing.T) {
	const n = 2
	net := transport.NewMemNetwork(n)
	defer net.Close()
	rts := make([]*Runtime, n)
	for i := 0; i < n; i++ {
		r, err := New(Config{Endpoint: net.Endpoint(i)})
		if err != nil {
			t.Fatal(err)
		}
		rts[i] = r
	}
	bad := func(peer int, now int64, _ []int64) int64 { return now } // not in the future
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			errs <- rts[i].Exchange(ExchangeOpts{Resync: true, SFunc: bad})
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err == nil {
			t.Error("s-function scheduling in the past was accepted")
		}
	}
}

// TestNoExchangeTargets: a tick where nobody is due must not block.
func TestNoExchangeTargets(t *testing.T) {
	const n = 2
	sparse := func(peer int, now int64, _ []int64) int64 { return now + 5 }
	runGroup(t, n, true, func(r *Runtime) error {
		if err := r.Share(1, nil); err != nil {
			return err
		}
		for k := 0; k < 4; k++ { // rendezvous at tick 1 only; 2-4 free-run
			if err := r.Exchange(ExchangeOpts{Resync: true, SFunc: sparse}); err != nil {
				return err
			}
		}
		return nil
	})
}

// TestBroadcastOverridesFilter: the paper's broadcast mode flushes all
// buffered modifications to everyone, ignoring the spatial filter.
func TestBroadcastOverridesFilter(t *testing.T) {
	const n = 2
	rts := runGroup(t, n, true, func(r *Runtime) error {
		if err := r.Share(1, counterBytes(0)); err != nil {
			return err
		}
		never := func(peer int) bool { return false }
		if r.ID() == 0 {
			if err := r.Write(1, counterBytes(77)); err != nil {
				return err
			}
			return r.Exchange(ExchangeOpts{
				Resync: true, How: Broadcast, SFunc: EveryTick, SendData: never,
			})
		}
		return r.Exchange(ExchangeOpts{
			Resync: true, How: Broadcast, SFunc: EveryTick, SendData: never,
		})
	})
	b, _ := rts[1].Store().Get(1)
	if got := binary.BigEndian.Uint64(b); got != 77 {
		t.Errorf("broadcast did not override the filter: object = %d, want 77", got)
	}
}
