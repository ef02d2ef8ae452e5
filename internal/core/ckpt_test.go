package core

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/transport"
	"sdso/internal/wire"
)

// ckptGroup builds n runtimes over one in-memory network with checkpoint
// replication on (every tick, crash budget f).
func ckptGroup(t *testing.T, net *transport.MemNetwork, n, f int) ([]*Runtime, []*metrics.Collector) {
	t.Helper()
	rts := make([]*Runtime, n)
	mcs := make([]*metrics.Collector, n)
	for i := 0; i < n; i++ {
		mcs[i] = metrics.NewCollector()
		r, err := New(Config{
			Endpoint:          net.Endpoint(i),
			Metrics:           mcs[i],
			MergeDiffs:        true,
			RendezvousTimeout: 200 * time.Millisecond,
			CheckpointEvery:   1,
			CheckpointF:       f,
		})
		if err != nil {
			t.Fatalf("New %d: %v", i, err)
		}
		rts[i] = r
	}
	return rts, mcs
}

// TestCheckpointRecoversEvictedWrites is the core of the replication story:
// a write that reached NO live peer through ordinary exchanges still
// survives the writer's crash, because the checkpoint stream vaulted it and
// eviction folds the vault into the survivors' stores.
func TestCheckpointRecoversEvictedWrites(t *testing.T) {
	const n = 3
	net := transport.NewMemNetwork(n)
	t.Cleanup(net.Close)
	rts, mcs := ckptGroup(t, net, n, 1)
	r0, r1, r2 := rts[0], rts[1], rts[2]

	obj := store.ID(0)
	for _, r := range rts {
		if err := r.Share(obj, counterBytes(0)); err != nil {
			t.Fatal(err)
		}
	}
	// Push r0's exchange with r2 far into the future: r2 must not receive
	// the write as ordinary DATA, only as a replicated checkpoint.
	r0.xl.Set(2, 1000)

	if err := r0.Write(obj, counterBytes(42)); err != nil {
		t.Fatal(err)
	}
	if err := r0.Exchange(ExchangeOpts{}); err != nil {
		t.Fatal(err)
	}
	r1.Poll()
	r2.Poll()

	// The stream goes to CheckpointF+1 = 2 ring successors: both peers
	// vault origin 0.
	for i, r := range []*Runtime{r1, r2} {
		if !heldFrom(r, 0).vaulted {
			t.Fatalf("peer %d did not vault origin 0's checkpoint", i+1)
		}
	}
	// r2 holds the blob but has not applied it: its replica is still old.
	if b, err := r2.Store().Get(obj); err != nil || binary.BigEndian.Uint64(b) != 0 {
		t.Fatalf("r2 replica = %v, %v; want untouched 0 before eviction", b, err)
	}

	// r0 crashes; r2 evicts it. The vault pays off: the write appears in
	// r2's store without ever having been exchanged.
	r2.evictPeer(0)
	b, err := r2.Store().Get(obj)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint64(b); got != 42 {
		t.Fatalf("r2 recovered %d, want the crashed writer's 42", got)
	}
	if mcs[2].Snapshot().ReplicaCatchups == 0 {
		t.Error("r2 recovered from the vault without counting a replica catch-up")
	}
	// Every survivor folds its own vault at its own eviction moment, so
	// the group converges on the crashed writer's state.
	r1.Poll()
	r1.evictPeer(0)
	if !r1.Store().Equal(r2.Store()) {
		t.Error("survivors diverged after both evicted the writer")
	}
}

// TestCheckpointRejoinRecoversOwnWrites: the crash victim itself restarts
// and rejoins; its pre-crash writes come back through the survivors even
// though the survivors only ever saw them as vaulted checkpoint blobs.
func TestCheckpointRejoinRecoversOwnWrites(t *testing.T) {
	const n = 3
	net := transport.NewMemNetwork(n)
	t.Cleanup(net.Close)
	rts, _ := ckptGroup(t, net, n, 1)
	r0, r1, r2 := rts[0], rts[1], rts[2]

	obj := store.ID(0)
	for _, r := range rts {
		if err := r.Share(obj, counterBytes(0)); err != nil {
			t.Fatal(err)
		}
	}
	// As above: the write never travels as DATA to anyone — r0 exchanges
	// with no one, only the checkpoint stream runs.
	r0.xl.Set(1, 1000)
	r0.xl.Set(2, 1000)
	if err := r0.Write(obj, counterBytes(42)); err != nil {
		t.Fatal(err)
	}
	if err := r0.Exchange(ExchangeOpts{}); err != nil {
		t.Fatal(err)
	}
	r1.Poll()
	r2.Poll()
	// Survivors evict the silent crash victim; the vault folds in.
	r1.evictPeer(0)
	r2.evictPeer(0)
	r1.Poll()
	r2.Poll()

	// The victim restarts as a fresh incarnation (empty store) and rejoins.
	r0b, err := New(Config{
		Endpoint:          net.Endpoint(0),
		MergeDiffs:        true,
		RendezvousTimeout: 200 * time.Millisecond,
		CheckpointEvery:   1,
		InitialMembers:    []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // survivors keep serving while the joiner blocks in Join
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r1.Poll()
				r2.Poll()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	joinErr := r0b.Join(1)
	close(stop)
	wg.Wait()
	if joinErr != nil {
		t.Fatalf("rejoin: %v", joinErr)
	}

	b, err := r0b.Store().Get(obj)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.BigEndian.Uint64(b); got != 42 {
		t.Fatalf("rejoined victim recovered %d, want its own pre-crash 42", got)
	}
}

// TestCheckpointDisabledIsInert: without CheckpointEvery the runtime
// allocates no vault, streams nothing, and drops stray CKPT frames.
func TestCheckpointDisabledIsInert(t *testing.T) {
	net := transport.NewMemNetwork(2)
	t.Cleanup(net.Close)
	mc := metrics.NewCollector()
	r, err := New(Config{Endpoint: net.Endpoint(0), Metrics: mc, MergeDiffs: true})
	if err != nil {
		t.Fatal(err)
	}
	if r.vaults != nil {
		t.Fatal("disabled checkpointing still vaults")
	}
	// A stray replicated checkpoint from a peer that has it enabled must
	// not corrupt a runtime that does not.
	r.handleCkpt(&wire.Msg{Kind: wire.KindCkpt, Src: 1, Obj: 1, Stamp: 5, Payload: []byte{1, 2, 3}})
	if heldFrom(r, 1).vaulted {
		t.Fatal("stray CKPT was vaulted despite replication being off")
	}
	if mc.Snapshot().QuorumRounds != 0 || mc.Snapshot().ReplicaCatchups != 0 {
		t.Fatal("disabled checkpointing moved replication counters")
	}
}
