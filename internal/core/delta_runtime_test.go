package core

// Runtime-level tests of delta-encoded exchanges (Config.DeltaEncode): the
// delta path must produce exactly the outcomes of the plain path, stay
// clean under the consistency oracle (including over batched schedules),
// and its acked-version tables must reset on eviction, readmission, and
// Join so a peer's new life never receives deltas against its old one.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"
	"time"

	"sdso/internal/check"
	"sdso/internal/diff"
	"sdso/internal/metrics"
	"sdso/internal/store"
	"sdso/internal/trace"
	"sdso/internal/transport"
	"sdso/internal/wire"
	"sdso/internal/xlist"
)

// TestDeltaEquivalence replays the identical lockstep game with delta
// encoding off and on: the final replicas must match byte-for-byte, the
// delta run must actually send deltas (the table acks via SYNC traffic, so
// after the first exchange every single-byte counter change qualifies),
// and no record may miss its base.
func TestDeltaEquivalence(t *testing.T) {
	const n, ticks = 4, 12
	run := func(delta bool) ([]*Runtime, []*metrics.Collector) {
		mcs := make([]*metrics.Collector, n)
		rts := runConfigGroup(t, n, func(ep transport.Endpoint) Config {
			mc := metrics.NewCollector()
			mcs[ep.ID()] = mc
			return Config{Endpoint: ep, MergeDiffs: true, DeltaEncode: delta, Metrics: mc}
		}, lockstepBody(n, ticks))
		return rts, mcs
	}
	rtsOff, _ := run(false)
	rtsOn, mcsOn := run(true)
	for i := 0; i < n; i++ {
		if !rtsOff[i].Store().Equal(rtsOn[i].Store()) {
			t.Fatalf("replica %d: delta run diverged from baseline", i)
		}
	}
	var recs, saved, mismatches int
	for _, mc := range mcsOn {
		s := mc.Snapshot()
		recs += s.DeltaRecords
		saved += s.DeltaBytesSaved
		mismatches += s.DeltaMismatches
	}
	if recs == 0 {
		t.Fatal("delta run sent no delta records")
	}
	if saved <= 0 {
		t.Fatalf("delta records saved %d bytes, want > 0", saved)
	}
	if mismatches != 0 {
		t.Fatalf("%d delta base mismatches on loss-free in-order links, want 0", mismatches)
	}
}

// TestDeltaOracleClean hands traced delta runs — plain every-tick and
// batched EveryKTicks schedules — to the consistency oracle: the delta
// path must leave clock monotonicity, exchange adherence, PID arbitration,
// and convergence exactly as sound as the baseline encoding.
func TestDeltaOracleClean(t *testing.T) {
	const n, ticks = 4, 12
	run := func(batch int64) check.History {
		recs := make([]*trace.Recorder, n)
		rts := runConfigGroup(t, n, func(ep transport.Endpoint) Config {
			recs[ep.ID()] = trace.NewRecorder(ep.ID())
			return Config{
				Endpoint: ep, MergeDiffs: true, DeltaEncode: true,
				MaxBatchTicks: batch, Trace: recs[ep.ID()],
			}
		}, func(r *Runtime) error {
			for obj := 0; obj < n; obj++ {
				if err := r.Share(store.ID(obj), counterBytes(0)); err != nil {
					return err
				}
			}
			sf := EveryTick
			if batch > 1 {
				sf = EveryKTicks(batch)
			}
			mine := store.ID(r.ID())
			for k := 1; k <= ticks; k++ {
				if err := r.Write(mine, counterBytes(uint64(k))); err != nil {
					return err
				}
				if err := r.Exchange(ExchangeOpts{Resync: true, SFunc: sf}); err != nil {
					return err
				}
			}
			// A closing broadcast flushes writes buffered past the last
			// batched rendezvous.
			return r.Exchange(ExchangeOpts{Resync: true, SFunc: EveryTick, How: Broadcast})
		})
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
	for _, batch := range []int64{0, 4} {
		rep := check.Analyze(run(batch), check.Options{Convergence: true})
		if !rep.Ok() {
			t.Errorf("batch=%d: oracle found violations:\n%s", batch, rep)
		}
		if rep.Events == 0 {
			t.Errorf("batch=%d: no events traced", batch)
		}
	}
}

// decodeRecordFlags decodes a delta payload and returns, per record,
// whether it was delta-encoded.
func decodeRecordFlags(t *testing.T, payload []byte) []bool {
	t.Helper()
	recs, err := xlist.DecodeDeltaRecords(payload)
	if err != nil {
		t.Fatalf("decode delta payload: %v", err)
	}
	flags := make([]bool, len(recs))
	for i, rec := range recs {
		flags[i] = rec.Delta
	}
	return flags
}

// TestDeltaTableResetForcesFullRecords pins the acked-version table's
// reset semantics directly on the sender: once the table has acks (a
// consumed SYNC promoted the pending record), same-length changes go out
// as deltas — and after deltaResetPeer (the eviction/readmission hook) or
// deltaResetAll (the Join hook) the very next record must fall back to a
// full replacement, because nothing may assume what the peer's new life
// holds.
func TestDeltaTableResetForcesFullRecords(t *testing.T) {
	net := transport.NewMemNetwork(2)
	t.Cleanup(net.Close)
	r, err := New(Config{Endpoint: net.Endpoint(0), DeltaEncode: true, Metrics: metrics.NewCollector()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const obj = store.ID(7)
	state0 := make([]byte, 64)
	if err := r.Share(obj, state0); err != nil {
		t.Fatalf("Share: %v", err)
	}

	mut := func(v byte) []byte {
		s := make([]byte, 64)
		s[0] = v
		return s
	}
	diffFor := func(old, new []byte, ver int64) []xlist.ObjDiff {
		return []xlist.ObjDiff{{Obj: obj, Version: ver, D: diff.Compute(old, new)}}
	}

	// First record: no pending entries yet and the base (the registered
	// initial state) is shared, so it may already be a delta.
	payload, mode := r.encodeDataPayload(1, diffFor(state0, mut(1), 1), 1)
	if mode == 0 {
		t.Fatal("DeltaEncode on but payload not marked as delta-capable")
	}
	if flags := decodeRecordFlags(t, payload); !flags[0] {
		t.Fatal("first same-length record against the shared initial state should delta-encode")
	}

	// Unacked pending entry → the table is not current → full record.
	payload, _ = r.encodeDataPayload(1, diffFor(mut(1), mut(2), 2), 2)
	if flags := decodeRecordFlags(t, payload); flags[0] {
		t.Fatal("record with an unacked predecessor must be a full record")
	}

	// A SYNC from the peer stamped past both sends promotes the pending
	// entries; the next record delta-encodes again.
	r.deltaAck(1, 3)
	payload, _ = r.encodeDataPayload(1, diffFor(mut(2), mut(3), 3), 3)
	if flags := decodeRecordFlags(t, payload); !flags[0] {
		t.Fatal("record with a current ack table should delta-encode")
	}

	// Eviction/readmission reset: the tip is gone, and although the
	// restored baseline is shared, the pending FIFO restarts too — the
	// first post-reset record is computed against the registered initial
	// state, not the peer's last-seen tip.
	r.deltaAck(1, 4)
	r.deltaResetPeer(1)
	if ps := &r.peers[1]; ps.send.entries != nil {
		t.Fatal("deltaResetPeer left the send table allocated")
	}
	payload, _ = r.encodeDataPayload(1, diffFor(mut(3), mut(4), 4), 4)
	recs, err := xlist.DecodeDeltaRecords(payload)
	if err != nil {
		t.Fatalf("decode post-reset payload: %v", err)
	}
	if recs[0].Delta {
		// A post-reset delta must be against the registered initial state
		// (the only base a fresh table may assume), never the old tip.
		if recs[0].BaseHash != diff.Fingerprint(state0) {
			t.Fatal("post-reset delta based on stale tip instead of the registered initial state")
		}
	}

	// Join reset: everything clears, including the receive shadows.
	r.deltaResetAll()
	for peer := range r.peers {
		if ps := &r.peers[peer]; ps.send.entries != nil || ps.recv.entries != nil {
			t.Fatal("deltaResetAll left table entries behind")
		}
	}
}

// TestRejectedDeltaInstallsNothing: reconstructions are written into bytes
// carved from the store's arena before the codec has seen the whole delta,
// so a delta refused halfway — a wrong base, or the right base and XOR bytes
// that do not decode — must leave the store's state, the shadow and the
// mismatch count exactly where a refusal always left them; and a record that
// is accepted installs one carved slice that the shadow and the store share.
func TestRejectedDeltaInstallsNothing(t *testing.T) {
	net := transport.NewMemNetwork(2)
	t.Cleanup(net.Close)
	mc := metrics.NewCollector()
	r, err := New(Config{Endpoint: net.Endpoint(0), DeltaEncode: true, Metrics: mc})
	if err != nil {
		t.Fatal(err)
	}
	const obj = store.ID(3)
	base := []byte("aaaaaaaa")
	next := []byte("abaaacaa")
	if err := r.Share(obj, base); err != nil {
		t.Fatal(err)
	}
	good, _ := diff.AppendXOR(nil, base, next)
	deliver := func(rec xlist.DeltaRecord) {
		rec.Obj = obj
		r.applyDeltaData(&wire.Msg{Kind: wire.KindData, Src: 1, Mode: wire.ModeDeltaPayload,
			Payload: xlist.EncodeDeltaRecords([]xlist.DeltaRecord{rec})})
	}
	shadow := func() deltaEntry { return *r.peers[1].recv.at(&r.deltaPool, obj) }
	before, _ := r.st.View(obj)
	r.now = 5 // a fetch outstanding is marked with the tick it was asked at

	for name, rec := range map[string]xlist.DeltaRecord{
		"wrong base":         {Version: 1, Delta: true, BaseHash: diff.Fingerprint(next), X: good},
		"run past the end":   {Version: 1, Delta: true, BaseHash: diff.Fingerprint(base), X: []byte{8, 7, 2, 1, 1}},
		"run data cut off":   {Version: 1, Delta: true, BaseHash: diff.Fingerprint(base), X: good[:len(good)-1]},
		"other state length": {Version: 1, Delta: true, BaseHash: diff.Fingerprint(base), X: []byte{9}},
	} {
		r.peers[1].recv = deltaTable{} // each refusal against a fresh, trusted shadow
		mismatches := mc.Snapshot().DeltaMismatches
		deliver(rec)
		if got := mc.Snapshot().DeltaMismatches - mismatches; got != 1 {
			t.Errorf("%s: counted %d mismatches, want 1", name, got)
		}
		if e := shadow(); !e.bad || e.stamp != 5 || e.known || e.state != nil {
			t.Errorf("%s: shadow after the refusal = %+v, want bad, fetching and otherwise untouched", name, e)
		}
		if v, _ := r.st.View(obj); &v[0] != &before[0] || !bytes.Equal(v, base) {
			t.Errorf("%s: the store holds %q after a refused delta", name, v)
		}
		if ver, _ := r.st.Version(obj); ver != 0 {
			t.Errorf("%s: version %d after a refused delta", name, ver)
		}
	}

	r.peers[1].recv = deltaTable{}
	deliver(xlist.DeltaRecord{Version: 1, Delta: true, BaseHash: diff.Fingerprint(base), X: good})
	v, _ := r.st.View(obj)
	if e := shadow(); e.bad || !e.known || !bytes.Equal(v, next) || &e.state[0] != &v[0] || cap(v) != len(v) {
		t.Errorf("accepted delta: store %q (cap %d), shadow %+v: want one carved slice under both", v, cap(v), e)
	}
	repl := []byte("replaced")
	deliver(xlist.DeltaRecord{Version: 2, D: diff.Diff{Replace: true, Len: len(repl), Runs: []diff.Run{{Data: repl}}}})
	v, _ = r.st.View(obj)
	if e := shadow(); !bytes.Equal(v, repl) || &e.state[0] != &v[0] || &v[0] == &repl[0] || cap(v) != len(v) {
		t.Errorf("replacement record: store %q (cap %d), shadow %+v: want one carved copy under both", v, cap(v), e)
	}
	if got := mc.Snapshot().DeltaMismatches; got != 4 {
		t.Errorf("%d mismatches in all, want the 4 refusals", got)
	}
}

// TestDeltaLateJoinerResetsTables runs the late-join scenario with delta
// encoding on everywhere: two members play, a third joins mid-game (the
// Join path calls deltaResetAll; the members' serveJoin→readmitPeer calls
// deltaResetPeer). The joiner must converge byte-identically, and no base
// mismatch may ever be detected — proving the resets force full records
// instead of leaning on the fingerprint gate to catch stale tables.
func TestDeltaLateJoinerResetsTables(t *testing.T) {
	const n, ticks = 3, 20
	net := transport.NewMemNetwork(n)
	t.Cleanup(net.Close)
	mcs := make([]*metrics.Collector, n)
	mk := func(i int, members []int) *Runtime {
		mcs[i] = metrics.NewCollector()
		r, err := New(Config{
			Endpoint:          net.Endpoint(i),
			MergeDiffs:        true,
			DeltaEncode:       true,
			Metrics:           mcs[i],
			RendezvousTimeout: 200 * time.Millisecond,
			InitialMembers:    members,
		})
		if err != nil {
			t.Fatalf("New %d: %v", i, err)
		}
		return r
	}
	rts := []*Runtime{mk(0, []int{0, 1}), mk(1, []int{0, 1}), mk(2, []int{2})}

	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
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
	go func() {
		defer wg.Done()
		errs[2] = func() error {
			r := rts[2]
			// A real player registers the shared objects before joining
			// (the game config names them); the snapshot merge then
			// overrides the initial states version-gated. Registering also
			// establishes the delta baselines both sides share.
			for obj := 0; obj < 2; obj++ {
				if err := r.Share(store.ID(obj), counterBytes(0)); err != nil {
					return err
				}
			}
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
	for obj := 0; obj < 2; obj++ {
		b, err := rts[2].Store().Get(store.ID(obj))
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.BigEndian.Uint64(b); got != ticks {
			t.Errorf("object %d = %d, want %d", obj, got, ticks)
		}
	}
	for i, mc := range mcs {
		if got := mc.Snapshot().DeltaMismatches; got != 0 {
			t.Errorf("process %d detected %d delta base mismatches across the join, want 0 (tables must reset, not recover)", i, got)
		}
	}
}

// hookEndpoint runs keep on every message sent and delivers only those it
// keeps.
type hookEndpoint struct {
	transport.Endpoint
	keep func(m *wire.Msg) bool
}

func (e hookEndpoint) Send(to int, m *wire.Msg) error {
	if !e.keep(m) {
		return nil
	}
	return e.Endpoint.Send(to, m)
}

// TestDeltaRecoveryRetriesLostFetch: a refused delta fetches its object in
// full, and the reply realigns both tables. When that reply is lost, the
// mark the fetch left must not stall recovery for good: the next refused
// delta, on a later tick, fetches again and the shadow recovers. The sender
// writes every other tick so its records are proven and go out as deltas;
// its DATA frame of tick 3 and its first ObjReply are dropped.
func TestDeltaRecoveryRetriesLostFetch(t *testing.T) {
	net := transport.NewMemNetwork(2)
	t.Cleanup(net.Close)
	const obj = store.ID(1)
	var b *Runtime
	var fetches []int64 // the receiver's clock at each ObjReq it sent
	droppedData, droppedReply := false, false
	a, err := New(Config{Endpoint: hookEndpoint{net.Endpoint(0), func(m *wire.Msg) bool {
		switch {
		case m.Kind == wire.KindData && m.Stamp == 3 && !droppedData:
			droppedData = true
			return false
		case m.Kind == wire.KindObjReply && !droppedReply:
			droppedReply = true
			return false
		}
		return true
	}}, MergeDiffs: true, DeltaEncode: true})
	if err != nil {
		t.Fatal(err)
	}
	mc := metrics.NewCollector()
	b, err = New(Config{Endpoint: hookEndpoint{net.Endpoint(1), func(m *wire.Msg) bool {
		if m.Kind == wire.KindObjReq {
			fetches = append(fetches, b.Now())
		}
		return true
	}}, MergeDiffs: true, Metrics: mc})
	if err != nil {
		t.Fatal(err)
	}
	state := func(k int) []byte {
		s := make([]byte, 16)
		s[k%16] = byte(k)
		return s
	}
	for _, r := range []*Runtime{a, b} {
		if err := r.Share(obj, state(0)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 1; k <= 10; k++ {
		if k%2 == 1 {
			if err := a.Write(obj, state(k)); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range []*Runtime{a, b} {
			if err := r.Exchange(ExchangeOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		a.Poll()
		b.Poll()
	}
	if !droppedData || !droppedReply {
		t.Fatalf("dropped DATA %v, ObjReply %v: the scenario did not play out", droppedData, droppedReply)
	}
	if len(fetches) < 2 || fetches[1] <= fetches[0] {
		t.Fatalf("ObjReqs at ticks %v: want a second fetch on a later tick's refused delta", fetches)
	}
	if got := mc.Snapshot().DeltaMismatches; got < 2 {
		t.Errorf("%d refused deltas, want the two the lost frames caused", got)
	}
	want, _ := a.Store().Get(obj)
	if got, _ := b.Store().Get(obj); !bytes.Equal(got, want) {
		t.Errorf("receiver holds %v, sender %v", got, want)
	}
	if e := b.peers[0].recv.at(&b.deltaPool, obj); e.bad || !e.known || !bytes.Equal(e.state, want) {
		t.Errorf("shadow of the sender %+v did not recover to %v", *e, want)
	}
}
