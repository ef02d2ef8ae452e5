package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"sdso/internal/check"
	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/trace"
	"sdso/internal/transport"
	"sdso/internal/wire"
)

// runConfigGroup runs body for each of n runtimes built by mkCfg over an
// in-memory network.
func runConfigGroup(t *testing.T, n int, mkCfg func(ep transport.Endpoint) Config, body func(r *Runtime) error) []*Runtime {
	t.Helper()
	net := transport.NewMemNetwork(n)
	t.Cleanup(net.Close)
	rts := make([]*Runtime, n)
	for i := 0; i < n; i++ {
		r, err := New(mkCfg(net.Endpoint(i)))
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

// lockstepBody is the BSYNC shape used by the piggyback tests: every
// process owns one counter object, increments it each tick, and exchanges
// with everyone every tick, advertising a per-tick beacon. It ends with one
// more write and Done, so the final flush carries the DONE marker — after a
// barrier, so that no process meets a peer's DONE while still awaiting its
// last rendezvous and every Done has all n-1 peers live.
func lockstepBody(n, ticks int) func(r *Runtime) error {
	var lastTick sync.WaitGroup
	lastTick.Add(n)
	return func(r *Runtime) error {
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
			opts := ExchangeOpts{
				Resync: true,
				SFunc:  EveryTick,
				Beacon: func(peer int) []int64 { return []int64{int64(r.ID()), r.Now()} },
			}
			if err := r.Exchange(opts); err != nil {
				return err
			}
		}
		lastTick.Done()
		lastTick.Wait()
		if err := r.Write(mine, counterBytes(uint64(ticks+1))); err != nil {
			return err
		}
		return r.Done(false)
	}
}

// splitEndpoint counts the frames its runtime sends and, with split set,
// sends them as a two-frame peer would: a DATA frame carrying a marker goes
// out as unflagged DATA followed by the bare SYNC or DONE — the form every
// receiver keeps accepting (DESIGN.md §15, the frame rule).
type splitEndpoint struct {
	transport.Endpoint
	split  bool
	frames int
}

func (s *splitEndpoint) Send(to int, m *wire.Msg) error {
	s.frames++
	const markers = wire.ModeSyncPiggyback | wire.ModeDonePiggyback | wire.ModeDoneWon
	if !s.split || m.Kind != wire.KindData || m.Mode&markers == 0 {
		return s.Endpoint.Send(to, m)
	}
	s.frames++
	marker := &wire.Msg{Kind: wire.KindSync, Stamp: m.Stamp, Ints: m.Ints}
	if m.Mode&wire.ModeDonePiggyback != 0 {
		marker = &wire.Msg{Kind: wire.KindDone, Stamp: m.Stamp - 1}
		if m.Mode&wire.ModeDoneWon != 0 {
			marker.Mode = doneWon
		}
	}
	if wire.Shared(m) {
		// The frame is one struct for several peers, and immutable: strip
		// the markers from a copy and return this Send's reference.
		c := m.Clone()
		wire.PutMsg(m)
		m = c
	}
	m.Mode, m.Ints = m.Mode&^markers, nil
	if err := s.Endpoint.Send(to, m); err != nil {
		return err
	}
	return s.Endpoint.Send(to, marker)
}

// TestPiggybackConvergence runs the lockstep game: replicas must converge
// on the sequential outcome, and — since data flows to every peer at every
// tick and with the final flush — every SYNC and DONE must have ridden on a
// data frame, sending zero standalone markers.
func TestPiggybackConvergence(t *testing.T) {
	const n, ticks = 4, 10
	mcs := make([]*metrics.Collector, n)
	rts := runConfigGroup(t, n, func(ep transport.Endpoint) Config {
		mc := metrics.NewCollector()
		mcs[ep.ID()] = mc
		return Config{Endpoint: ep, MergeDiffs: true, Metrics: mc}
	}, lockstepBody(n, ticks))
	// The final flush is stamped one tick past the last Exchange, so it
	// waits (early) at peers that never tick again: every replica holds the
	// loop's last value of each object, and its own final write.
	for i, r := range rts {
		for obj := 0; obj < n; obj++ {
			b, err := r.Store().Get(store.ID(obj))
			if err != nil {
				t.Fatal(err)
			}
			want := uint64(ticks)
			if obj == i {
				want++
			}
			if got := binary.BigEndian.Uint64(b); got != want {
				t.Errorf("replica %d: object %d = %d, want %d", i, obj, got, want)
			}
		}
	}
	for i, mc := range mcs {
		s := mc.Snapshot()
		wantPairs := ticks * (n - 1)
		if got := s.MsgsSent[wire.KindSync] + s.MsgsSent[wire.KindDone]; got != 0 {
			t.Errorf("process %d sent %d standalone SYNCs and DONEs, want 0 (all riding)", i, got)
		}
		if got := s.MsgsSent[wire.KindData]; got != wantPairs+n-1 {
			t.Errorf("process %d sent %d DATA messages, want %d", i, got, wantPairs+n-1)
		}
		if got := s.PiggybackedSyncs; got != wantPairs {
			t.Errorf("process %d piggybacked %d SYNCs, want %d", i, got, wantPairs)
		}
		if got := s.PiggybackedDones; got != n-1 {
			t.Errorf("process %d piggybacked %d DONEs, want %d", i, got, n-1)
		}
		if got, want := s.LogicalMsgs(), 2*s.TotalMsgs(); got != want {
			t.Errorf("process %d: %d logical messages, want %d (two per frame)", i, got, want)
		}
	}
}

// TestPiggybackEquivalence replays the identical lockstep game in the
// one-frame form the runtime sends and in the two-frame form it still
// accepts (every marker split off its data frame on the way out): final
// replicas, the full per-process beacon observation logs and the peers
// seen done must match exactly — the receive path synthesizes the same
// logical (data, marker) pairs either way — while the frames sent halve.
func TestPiggybackEquivalence(t *testing.T) {
	const n, ticks = 4, 10
	run := func(split bool) ([]*Runtime, [][]string, int) {
		beacons := make([][]string, n)
		eps := make([]*splitEndpoint, n)
		rts := runConfigGroup(t, n, func(ep transport.Endpoint) Config {
			id := ep.ID()
			eps[id] = &splitEndpoint{Endpoint: ep, split: split}
			return Config{
				Endpoint: eps[id], MergeDiffs: true,
				OnBeacon: func(peer int, b []int64) {
					beacons[id] = append(beacons[id], fmt.Sprintf("%d:%v", peer, b))
				},
			}
		}, lockstepBody(n, ticks))
		total := 0
		for i, r := range rts {
			r.Poll() // everyone has called Done: take the DONEs in
			for peer := 0; peer < n; peer++ {
				if peer != i && !r.PeerDone(peer) {
					t.Fatalf("split=%v: runtime %d never saw peer %d done", split, i, peer)
				}
			}
			total += eps[i].frames
		}
		return rts, beacons, total
	}
	rtsOne, beaconsOne, framesOne := run(false)
	rtsTwo, beaconsTwo, framesTwo := run(true)
	for i := 0; i < n; i++ {
		if !rtsOne[i].Store().Equal(rtsTwo[i].Store()) {
			t.Fatalf("replica %d: the two-frame form diverged from the one-frame form", i)
		}
		if fmt.Sprint(beaconsOne[i]) != fmt.Sprint(beaconsTwo[i]) {
			t.Fatalf("process %d beacon logs diverged:\none frame:  %v\ntwo frames: %v", i, beaconsOne[i], beaconsTwo[i])
		}
	}
	if framesOne*2 != framesTwo {
		t.Errorf("frames sent: %d riding, %d split; want exactly half", framesOne, framesTwo)
	}
}

// TestPiggybackOracleClean replays the lockstep game in both frame forms
// under trace recorders and hands the histories to the consistency oracle:
// a marker riding its data frame and one trailing it must leave every
// checked invariant — clock monotonicity, exchange-list adherence, PID
// arbitration, delivery, convergence — equally sound.
func TestPiggybackOracleClean(t *testing.T) {
	const n, ticks = 4, 10
	run := func(split bool) check.History {
		recs := make([]*trace.Recorder, n)
		rts := runConfigGroup(t, n, func(ep transport.Endpoint) Config {
			recs[ep.ID()] = trace.NewRecorder(ep.ID())
			return Config{Endpoint: &splitEndpoint{Endpoint: ep, split: split}, MergeDiffs: true, Trace: recs[ep.ID()]}
		}, lockstepBody(n, ticks))
		h := check.History{
			Procs:   make([][]trace.Event, n),
			Stores:  make([]*store.Store, n),
			Crashed: make([]bool, n),
		}
		for i := range recs {
			h.Procs[i] = recs[i].Events()
			h.Stores[i] = rts[i].Store()
		}
		return h
	}
	for _, split := range []bool{false, true} {
		rep := check.Analyze(run(split), check.Options{Convergence: true})
		if !rep.Ok() {
			t.Errorf("split=%v: oracle found violations:\n%s", split, rep)
		}
		if rep.Events == 0 {
			t.Errorf("split=%v: no events traced", split)
		}
	}
}

// TestPiggybackWithSpatialFilter mixes the two frame shapes in one game:
// the spatial filter withholds data from higher-numbered peers, so those
// rendezvous use bare SYNCs while the rest ride their data, and withheld diffs
// stay buffered until the filter opens. Replicas must still converge once
// a final unfiltered broadcast flushes everything.
func TestPiggybackWithSpatialFilter(t *testing.T) {
	const n, ticks = 3, 6
	rts := runConfigGroup(t, n, func(ep transport.Endpoint) Config {
		return Config{Endpoint: ep, MergeDiffs: true}
	}, func(r *Runtime) error {
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
			opts := ExchangeOpts{
				Resync:   true,
				SFunc:    EveryTick,
				SendData: func(peer int) bool { return peer < r.ID() },
				Beacon:   func(peer int) []int64 { return []int64{r.Now()} },
			}
			if err := r.Exchange(opts); err != nil {
				return err
			}
		}
		// A closing broadcast flushes every withheld diff.
		return r.Exchange(ExchangeOpts{Resync: true, SFunc: EveryTick, How: Broadcast})
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
}

// TestFramesMatchPR4Baseline pins the zero-config TCP path: a two-runtime,
// 100-tick lockstep game over loopback sockets, with no checkpoint stream,
// session layer, delta encoding, interest filter or shards configured, must
// put exactly the frames and wire bytes on the transport that it has since
// PR 4 made the exchange one frame per peer per tick — every later feature
// is opt-in and may not add a byte here. 200 exchanges (2 players x 100
// ticks) send 200 frames and 5 948 bytes. The byte count was 13 400 (67 a
// frame) until the codec replaced the fixed 30-byte header and 8-byte ints
// with varints (7 548), and 7 548 until the routing words left the
// encoding: 7 548 - 200 frames x 8 B (Src and Dst, 4 B each) = 5 948.
// Neither moved a frame count.
func TestFramesMatchPR4Baseline(t *testing.T) {
	const n, ticks = 2, 100
	const wantFrames, wantWireBytes = 200, 5948

	lns, addrs, err := transport.ListenLoopback(n)
	if err != nil {
		t.Fatal(err)
	}
	// each runs f for every player concurrently and fails on any error.
	each := func(what string, f func(i int) error) {
		t.Helper()
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = f(i)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s, player %d: %v", what, i, err)
			}
		}
	}

	mcs := make([]*metrics.Collector, n)
	eps := make([]*transport.TCPEndpoint, n)
	each("dial", func(i int) (err error) {
		mcs[i] = metrics.NewCollector()
		eps[i], err = transport.DialTCPConfig(i, addrs, transport.TCPConfig{FlushThreshold: 32 << 10, Metrics: mcs[i], Listener: lns[i]})
		return err
	})
	each("play", func(i int) error {
		r, err := New(Config{Endpoint: eps[i], MergeDiffs: true})
		if err != nil {
			return err
		}
		for obj := 0; obj < n; obj++ {
			if err := r.Share(store.ID(obj), counterBytes(0)); err != nil {
				return err
			}
		}
		for k := 1; k <= ticks; k++ {
			if err := r.Write(store.ID(i), counterBytes(uint64(k))); err != nil {
				return err
			}
			opts := ExchangeOpts{
				Resync: true,
				SFunc:  EveryTick,
				Beacon: func(peer int) []int64 { return []int64{int64(i), r.Now()} },
			}
			if err := r.Exchange(opts); err != nil {
				return err
			}
		}
		return nil
	})
	// Concurrently: a sequential close would leave the first endpoint's
	// read loop blocked on its still-open peer until the close grace ends.
	each("close", func(i int) error { return eps[i].Close() })

	frames, wireBytes := 0, 0
	for _, mc := range mcs {
		s := mc.Snapshot()
		frames += s.FramesSent
		wireBytes += s.WireBytes
	}
	if frames != wantFrames || wireBytes != wantWireBytes {
		t.Errorf("%d exchanges put %d frames, %d bytes on the wire; want %d frames, %d bytes — the zero-config TCP path changed",
			n*ticks, frames, wireBytes, wantFrames, wantWireBytes)
	}
}
