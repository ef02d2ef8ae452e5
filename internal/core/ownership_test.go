package core

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"sdso/internal/diff"
	"sdso/internal/faultnet"
	"sdso/internal/metrics"
	"sdso/internal/race"
	"sdso/internal/store"
	"sdso/internal/transport"
	"sdso/internal/wire"
	"sdso/internal/xlist"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetransmittedSyncKeepsBeacon pins the sender half of the message rule
// on the two paths that resend a SYNC. A sent message is given away: on the
// mem transport the receiver holds the sender's very struct, recycles it
// once consumed, and the pool hands it to whoever sends next. Both
// endpoints poison what they recycle, so by the time a's suspicion timeout
// retransmits its SYNC, and by the time b echoes its own, the struct that
// carried the original is scribbled over and back in circulation — the
// resent messages must be built from the values the senders kept
// (peerState.lastSync), never from the struct. (When lastSync was the sent
// struct, the receiver wiping it was a cross-goroutine write/read with no
// happens-before — run this under -race — and the retransmitted SYNC
// overwrote the held beacon with nothing.)
func TestRetransmittedSyncKeepsBeacon(t *testing.T) {
	net := transport.NewMemNetwork(2)
	t.Cleanup(net.Close)
	beacons := [2][]int64{{7, 7}, {9, 9, 9}}
	var got [][]int64 // beacons b's rendezvous with a delivered
	mcA := metrics.NewCollector()
	mk := func(id int, mc *metrics.Collector, onBeacon func(int, []int64)) *Runtime {
		r, err := New(Config{
			Endpoint: faultnet.NewPoisonEndpoint(net.Endpoint(id), true), Metrics: mc, OnBeacon: onBeacon,
			RendezvousTimeout: 20 * time.Millisecond, MaxRetransmits: 50,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := mk(0, mcA, nil)
	b := mk(1, metrics.NewCollector(), func(_ int, ints []int64) { got = append(got, ints) })
	opts := func(id int) ExchangeOpts {
		return ExchangeOpts{Resync: true, SFunc: EveryTick, Beacon: func(int) []int64 { return beacons[id] }}
	}

	errA := make(chan error, 1)
	go func() { errA <- a.Exchange(opts(0)) }()

	// b is late: it only drains its mailbox, which holds a's SYNC as early
	// traffic and recycles — poisons — the message.
	waitFor(t, "a's SYNC to be held early", func() bool {
		b.Poll()
		return len(heldFrom(b, 0).syncs) == 1
	})
	// a times out on b and retransmits its SYNC, from the values it kept:
	// the struct it sent is the one b just poisoned. b consumes the
	// retransmission too.
	waitFor(t, "a's retransmission", func() bool { return mcA.Snapshot().Retransmits > 0 })
	b.Poll()
	if es := heldFrom(b, 0).syncs; len(es) != 1 || !slices.Equal(es[0].beacon, beacons[0]) {
		t.Fatalf("held SYNC after the retransmission = %+v, want one carrying %v", es, beacons[0])
	}

	if err := b.Exchange(opts(1)); err != nil {
		t.Fatal(err)
	}
	if err := <-errA; err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !slices.Equal(got[0], beacons[0]) {
		t.Fatalf("b's rendezvous saw beacons %v, want [%v]", got, beacons[0])
	}

	// The echo: a marked retransmission of a SYNC b has already consumed
	// makes b resend its own last SYNC — whose original struct a consumed,
	// poisoned and recycled when its rendezvous completed.
	a.Poll() // drain whatever b's side of the retransmissions left behind
	if err := net.Endpoint(0).Send(1, newSync(1, beacons[0], modeRetransmit)); err != nil {
		t.Fatal(err)
	}
	b.Poll()
	echo, ok, err := net.Endpoint(0).TryRecv()
	if err != nil || !ok {
		t.Fatalf("no echo from b: ok=%v err=%v", ok, err)
	}
	if echo.Kind != wire.KindSync || echo.Stamp != 1 || echo.Mode != 0 || !slices.Equal(echo.Ints, beacons[1]) {
		t.Fatalf("echo = %v ints=%v, want b's tick-1 SYNC carrying %v", echo, echo.Ints, beacons[1])
	}
}

// TestSentMessageIsGivenAway: after an Exchange no peerState field may
// point at a struct the runtime handed to its transport. Whatever the
// runtime keeps of a message it sent (lastSync, the delta tips) it keeps as
// values. The walk is by reflection over the whole per-peer slab, so a
// field added later is covered without being named here.
func TestSentMessageIsGivenAway(t *testing.T) {
	net := transport.NewMemNetwork(2)
	t.Cleanup(net.Close)
	// What each runtime handed to Send during the tick in progress. The
	// sets are per tick because structs circulate: one a runtime sent
	// last tick may legitimately come back to it, as its peer's message.
	sent := make([]map[*wire.Msg]bool, 2)
	rts := make([]*Runtime, 2)
	for id := range rts {
		id := id
		r, err := New(Config{
			Endpoint:   faultnet.NewObservedEndpoint(net.Endpoint(id), func(_ int, m *wire.Msg) { sent[id][m] = true }),
			MergeDiffs: true, DeltaEncode: true,
			RendezvousTimeout: time.Minute, // failure detection on: lastSync is live state
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Share(0, counterBytes(0)); err != nil {
			t.Fatal(err)
		}
		rts[id] = r
	}
	step := func(r *Runtime, k int) error {
		if err := r.Write(0, counterBytes(uint64(2*k+r.ID()))); err != nil {
			return err
		}
		return r.Exchange(ExchangeOpts{
			Resync: true, SFunc: EveryTick, Beacon: func(int) []int64 { return []int64{int64(k)} },
		})
	}
	for k := 1; k <= 3; k++ {
		sent[0], sent[1] = make(map[*wire.Msg]bool), make(map[*wire.Msg]bool)
		errB := make(chan error, 1)
		go func() { errB <- step(rts[1], k) }()
		if err := step(rts[0], k); err != nil {
			t.Fatal(err)
		}
		if err := <-errB; err != nil {
			t.Fatal(err)
		}
		for id, r := range rts {
			if len(sent[id]) == 0 {
				t.Fatalf("tick %d: the recorder saw nothing runtime %d sent", k, id)
			}
			if r.peers[1-id].lastSync.stamp != int64(k) {
				t.Fatalf("runtime %d kept lastSync %+v after tick %d", id, r.peers[1-id].lastSync, k)
			}
			for _, m := range reachableMsgs(reflect.ValueOf(r.peers)) {
				if sent[id][m] {
					t.Fatalf("tick %d: runtime %d still holds %p (%v), which it gave to its transport", k, id, m, m)
				}
			}
		}
	}
}

// reachableMsgs returns every *wire.Msg reachable from v through pointers,
// slices, arrays, structs and interfaces.
func reachableMsgs(v reflect.Value) []*wire.Msg {
	var out []*wire.Msg
	msgType := reflect.TypeOf((*wire.Msg)(nil))
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() {
				return
			}
			if v.Type() == msgType {
				out = append(out, (*wire.Msg)(v.UnsafePointer()))
				return
			}
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		}
	}
	walk(v)
	return out
}

// TestAppliedDataSurvivesPayloadReuse: a pooling transport reuses m.Payload
// once the message is recycled, and applyData decodes into scratch that
// aliases it — so after applying a delta payload and a full-record payload,
// scribbling over both buffers must leave the store, the per-sender shadow
// and every View taken along the way unchanged.
func TestAppliedDataSurvivesPayloadReuse(t *testing.T) {
	net := transport.NewMemNetwork(2)
	t.Cleanup(net.Close)
	mk := func(id int) *Runtime {
		r, err := New(Config{Endpoint: net.Endpoint(id), MergeDiffs: true, DeltaEncode: true})
		if err != nil {
			t.Fatal(err)
		}
		for obj := store.ID(0); obj < 2; obj++ {
			if err := r.Share(obj, make([]byte, 32)); err != nil {
				t.Fatal(err)
			}
		}
		return r
	}
	snd, rcv := mk(0), mk(1)
	state := func(v byte) []byte { return bytes.Repeat([]byte{v}, 32) }
	scribble := func(b []byte) {
		for i := range b {
			b[i] = 0xEE
		}
	}
	var views [][2][]byte // {view, expected copy}
	check := func(when string, obj store.ID, want []byte) {
		t.Helper()
		v, err := rcv.st.View(obj)
		if err != nil || !bytes.Equal(v, want) {
			t.Fatalf("%s: store object %d = %x, %v; want %x", when, obj, v, err, want)
		}
		views = append(views, [2][]byte{v, bytes.Clone(v)})
		e := rcv.peers[0].recv.at(&rcv.deltaPool, obj)
		if !e.known || !bytes.Equal(e.state, want) {
			t.Fatalf("%s: shadow of object %d = %+v, want state %x", when, obj, e, want)
		}
		for i, pair := range views {
			if !bytes.Equal(pair[0], pair[1]) {
				t.Fatalf("%s: View #%d changed under its holder: %x, was %x", when, i, pair[0], pair[1])
			}
		}
	}
	deliver := func(stamp int64, write func()) (payload []byte, recs []xlist.DeltaRecord) {
		t.Helper()
		write()
		payload, mode := snd.encodeDataPayload(1, snd.buf.Flush(1), stamp)
		payload = bytes.Clone(payload) // the message's own copy: encodeDataPayload returns its scratch
		recs, err := xlist.DecodeDeltaRecords(payload)
		if err != nil {
			t.Fatal(err)
		}
		rcv.now = stamp
		rcv.applyData(&wire.Msg{Kind: wire.KindData, Mode: mode, Src: 0, Stamp: stamp, Payload: payload})
		return payload, recs
	}

	// Tick 1: a sparse change against the shared initial state — a delta.
	sparse := make([]byte, 32)
	sparse[3] = 9
	p1, recs := deliver(1, func() {
		if err := snd.Write(0, sparse); err != nil {
			t.Fatal(err)
		}
	})
	if !recs[0].Delta {
		t.Fatal("first record should be an XOR delta")
	}
	check("after the delta", 0, sparse)

	// Tick 2: the same object again with its predecessor unacknowledged —
	// a full replacement record.
	p2, recs := deliver(2, func() {
		if err := snd.Write(0, state(5)); err != nil {
			t.Fatal(err)
		}
	})
	if recs[0].Delta {
		t.Fatal("record over an unacknowledged predecessor should be full")
	}
	check("after the full record", 0, state(5))

	scribble(p1)
	scribble(p2)
	check("after both payload buffers were reused", 0, state(5))

	// The plain encoding's decode scratch aliases the payload as well.
	d := diff.Compute(state(5), state(6))
	p3 := xlist.EncodeDiffs([]xlist.ObjDiff{{Obj: 1, Version: 1, D: d}})
	rcv.applyData(&wire.Msg{Kind: wire.KindData, Src: 0, Stamp: 2, Payload: p3})
	v, _ := rcv.st.View(1)
	want := bytes.Clone(v)
	scribble(p3)
	if v2, _ := rcv.st.View(1); !bytes.Equal(v2, want) || !bytes.Equal(v, want) {
		t.Fatalf("plain-diff state changed with its payload buffer: %x, was %x", v2, want)
	}
}

// lockstepPair runs two runtimes on a mem pair: tick() performs one
// Write+Exchange on both (the peer in its own goroutine, as in a real
// game) and returns when both are through.
func lockstepPair(t *testing.T, delta bool) (tick func()) {
	t.Helper()
	net := transport.NewMemNetwork(2)
	t.Cleanup(net.Close)
	rts := make([]*Runtime, 2)
	for id := range rts {
		r, err := New(Config{Endpoint: net.Endpoint(id), MergeDiffs: true, DeltaEncode: delta})
		if err != nil {
			t.Fatal(err)
		}
		for obj := store.ID(0); obj < 2; obj++ {
			if err := r.Share(obj, counterBytes(0)); err != nil {
				t.Fatal(err)
			}
		}
		rts[id] = r
	}
	beacons := [2][]int64{{0, 0}, {1, 1}}
	step := func(r *Runtime) error {
		if err := r.Write(store.ID(r.ID()), counterBytes(uint64(r.Now()+1))); err != nil {
			return err
		}
		return r.Exchange(ExchangeOpts{
			Resync: true, SFunc: EveryTick,
			Beacon: func(int) []int64 { return beacons[r.ID()] },
		})
	}
	kick, done := make(chan struct{}), make(chan error)
	go func() {
		for range kick {
			done <- step(rts[1])
		}
	}()
	t.Cleanup(func() { close(kick) })
	return func() {
		kick <- struct{}{}
		err0 := step(rts[0])
		if err1 := <-done; err0 != nil || err1 != nil {
			t.Fatalf("lockstep tick: %v, %v", err0, err1)
		}
	}
}

// TestExchangeAllocBudget pins the steady-state allocations of one lockstep
// tick of a two-runtime mem pair — both runtimes' Write+Exchange, the shape
// of the benchmark panel's core.exchange2_allocs_op — so the allocator
// cannot creep back into the tick unnoticed. What a tick still allocates,
// per runtime: the replacement's run slice. The written state's published
// copy and the received state are carved from the store's arena (a chunk
// every 64 of them, which AllocsPerRun's integer average does not see); the
// write computes no diff; the two messages and the DATA payload circulate
// through the wire pool (a sent message is given away, a consumed one
// recycled). It was 10 before the arena.
func TestExchangeAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		name    string
		delta   bool
		ceiling float64
	}{
		{"delta", true, 3},
		{"plain", false, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tick := lockstepPair(t, tc.delta)
			for i := 0; i < 32; i++ { // warm the scratch buffers
				tick()
			}
			got := testing.AllocsPerRun(200, tick)
			t.Logf("%.1f allocations per pair-tick", got)
			if got > tc.ceiling {
				t.Errorf("%.1f allocations per pair-tick, budget %.0f", got, tc.ceiling)
			}
		})
	}
}

// TestMemoryLaw holds the runtime to O(n) + O(index) + O(objects touched) +
// O(objects actually exchanged with each peer): one runtime Shares a
// 768-block world and plays 60 lockstep ticks against 7 peers that each
// write their own block. A dense peer × object table would be 7 × 768
// entries here (and 12.5 M across an n = 128 run); the sparse tables hold
// one entry per peer. Registration holds the states, their offsets and
// nothing per object beside; the runtimes of one process standing on one
// Baseline (ShareAll) hold one copy of the world between them; and however
// often a replica is overwritten, the state bytes it retains stay under one
// arena chunk per live object (DESIGN.md §15, the retention corollary).
func TestMemoryLaw(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector inflates the heap")
	}
	const n, objects, ticks = 8, 768, 60
	net := transport.NewMemNetwork(n)
	t.Cleanup(net.Close)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // twice: a sync.Pool lets go of its contents a cycle late
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	newRuntime := func(id int) *Runtime {
		r, err := New(Config{Endpoint: net.Endpoint(id), MergeDiffs: true, DeltaEncode: true})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	// One world under n runtimes: sharing it adds nothing per runtime.
	over := make([]*Runtime, n)
	for id := range over {
		over[id] = newRuntime(id)
	}
	bare := heap()
	world := new(store.Baseline)
	for obj := store.ID(0); obj < objects; obj++ {
		if err := world.Register(obj, make([]byte, 8)); err != nil {
			t.Fatal(err)
		}
	}
	one := heap() - bare
	for _, r := range over {
		if err := r.ShareAll(world); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("one world holds %d B; %d runtimes over it hold %d B", one, n, heap()-bare)
	if all := heap() - bare; all >= 2*one {
		t.Errorf("%d runtimes over one %d B world hold %d B, want under two worlds", n, one, all)
	}
	first, _ := over[0].Store().View(objects - 1)
	for _, r := range over {
		if r.Store().Len() != objects {
			t.Fatalf("runtime %d holds %d objects after ShareAll, want %d", r.ID(), r.Store().Len(), objects)
		}
		if v, err := r.Store().View(objects - 1); err != nil || &v[0] != &first[0] {
			t.Fatalf("runtime %d reads its own copy of the shared world (err %v)", r.ID(), err)
		}
	}
	over = nil

	// Retention: a live state pins the arena chunk it was carved from, so
	// the worst a replica can hold is one chunk per object — reached here on
	// purpose, by following every write that stays with a chunk's worth of
	// writes that do not (to a scratch object, overwritten again at once).
	// Eight rounds carve 3 MB; what survives them must fit the bound, which
	// has no term in the number of writes.
	const chunk, rounds = 512, 8 // chunk is store's arenaChunk
	rep := newRuntime(0)
	if err := rep.ShareAll(world); err != nil {
		t.Fatal(err)
	}
	st, scratch, serial := rep.Store(), store.ID(objects-1), uint64(0)
	write := func(obj store.ID) {
		serial++
		if _, _, _, err := st.WriteBy(obj, counterBytes(serial), 0); err != nil {
			t.Fatal(err)
		}
	}
	unwritten := heap()
	for round := 0; round < rounds; round++ {
		for obj := store.ID(0); obj < scratch; obj++ {
			write(obj)
			for k := 1; k < chunk/8; k++ {
				write(scratch)
			}
		}
	}
	// Beside the chunks: a 40-byte record and an index word per object.
	retained, bound := int64(heap()-unwritten), int64(objects*chunk+48*objects+8192)
	t.Logf("%d rounds of %d writes retain %d B, bound %d (the states are %d B)", rounds, serial/rounds, retained, bound, 8*objects)
	if retained > bound {
		t.Errorf("an overwritten replica retains %d B, bound %d = objects × chunk + records", retained, bound)
	}
	runtime.KeepAlive(rep)
	runtime.KeepAlive(world)

	rts := make([]*Runtime, n)
	before := heap()
	for id := range rts {
		r := newRuntime(id)
		for obj := store.ID(0); obj < objects; obj++ {
			if err := r.Share(obj, make([]byte, 8)); err != nil {
				t.Fatal(err)
			}
		}
		rts[id] = r
	}
	shared := heap()
	var wg sync.WaitGroup
	for _, r := range rts {
		wg.Add(1)
		go func(r *Runtime) {
			defer wg.Done()
			for k := 1; k <= ticks; k++ {
				if err := r.Write(store.ID(r.ID()), counterBytes(uint64(k))); err != nil {
					t.Error(err)
					return
				}
				if err := r.Exchange(ExchangeOpts{Resync: true, SFunc: EveryTick}); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	played := heap()

	t.Logf("set-up %d B per runtime, play grew each by %d B", (shared-before)/n, int64(played-shared)/n)
	// Set-up, object by object into a baseline of the runtime's own: the
	// states and an offset pair each — about 20 B an object with 8-byte
	// states, no record and no index yet — plus the peer slab.
	if perRuntime := (shared - before) / n; perRuntime > 32*objects+4096*n {
		t.Errorf("set-up holds %d B per runtime, budget %d", perRuntime, 32*objects+4096*n)
	}
	// Play: each runtime exchanged one object with each peer, so its tables,
	// slots and retransmission state grew by O(n) small pieces (about 800 B
	// a peer), nowhere near n × objects table entries; and its first write
	// brought the overlay's index (a word per object) and first chunk of
	// records.
	if budget := int64(2048*n + 4*objects + 4096); int64(played-shared)/n > budget {
		t.Errorf("60 ticks grew each runtime by %d B, budget %d (a dense table would be %d)",
			int64(played-shared)/n, budget, 48*(n-1)*objects)
	}
	for _, r := range rts {
		for peer := range r.peers {
			if got := len(r.peers[peer].send.entries) + len(r.peers[peer].recv.entries); got > 2 {
				t.Fatalf("runtime %d holds %d delta entries for peer %d, want at most 2", r.ID(), got, peer)
			}
		}
	}
	runtime.KeepAlive(rts)
}
