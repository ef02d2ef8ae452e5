package core

import (
	"bytes"
	"testing"
	"time"

	"sdso/internal/store"
	"sdso/internal/transport"
	"sdso/internal/vtime"
	"sdso/internal/wire"
	"sdso/internal/xlist"
)

// pairFactory builds the two runtimes of a payload-format conformance run
// over their endpoints: a sender that writes and a receiver that only reads.
type pairFactory func(sender, receiver transport.Endpoint) (*Runtime, *Runtime, error)

// formatPair is the factory of one DATA payload format: plain diffs, or
// delta-capable records.
func formatPair(delta bool) pairFactory {
	return func(a, b transport.Endpoint) (*Runtime, *Runtime, error) {
		s, err := New(Config{Endpoint: a, MergeDiffs: true, DeltaEncode: delta})
		if err != nil {
			return nil, nil, err
		}
		r, err := New(Config{Endpoint: b, MergeDiffs: true, DeltaEncode: delta})
		return s, r, err
	}
}

// TestPayloadFormatConformance holds both DATA payload formats to one
// contract, the payload codec's (decode(encode(d)) = d under the acked
// base; any gap means a full record): over the same write sequences the
// receiver's replica equals the sender's after every rendezvous, and the
// delta format never sends a delta for an unproven record or for the first
// record after a reset of the sender's table or a readmission.
func TestPayloadFormatConformance(t *testing.T) {
	t.Run("plain", func(t *testing.T) { payloadConformance(t, formatPair(false)) })
	t.Run("delta", func(t *testing.T) { payloadConformance(t, formatPair(true)) })
}

// confStep is one tick of a conformance script: the sender resets its delta
// table for the receiver, or evicts and readmits it, then writes objects.
type confStep struct {
	reset, readmit bool
	writes         []store.ID
}

// sentRecord is one record the sender put on the wire.
type sentRecord struct {
	stamp int64
	obj   store.ID
	delta bool
}

// payloadConformance is the conformance body: it plays each script on the
// simulator between the factory's two runtimes in lockstep, so a record
// sent at tick k is proven (acknowledged by the receiver's SYNC) from tick
// k+2 on. Registered states are shorter than written ones, so a record
// whose table entry is fresh cannot be a delta either.
func payloadConformance(t *testing.T, factory pairFactory) {
	scripts := map[string][]confStep{
		"every tick":  {{writes: []store.ID{0}}, {writes: []store.ID{0}}, {writes: []store.ID{0}}, {writes: []store.ID{0}}, {writes: []store.ID{0}}},
		"alternating": {{writes: []store.ID{0}}, {writes: []store.ID{1}}, {writes: []store.ID{0}}, {writes: []store.ID{1, 2}}, {writes: []store.ID{0}}, {writes: []store.ID{1, 2}}, {writes: []store.ID{0, 2}}},
		"reset and readmission": {
			{writes: []store.ID{0, 1}}, {}, {writes: []store.ID{0}}, {writes: []store.ID{1}},
			{reset: true, writes: []store.ID{0}}, {writes: []store.ID{1}}, {writes: []store.ID{0}}, {},
			{readmit: true, writes: []store.ID{0, 1}}, {}, {writes: []store.ID{0, 1}},
		},
	}
	records, deltas := 0, 0
	for name, script := range scripts {
		sim := vtime.NewSim(vtime.Config{Horizon: time.Minute})
		var snd, rcv *Runtime
		var recs []sentRecord
		sent := make([]*store.Store, len(script))
		got := make([]*store.Store, len(script))
		errs := make([]error, 2)
		pa := sim.Spawn(func(*vtime.Proc) {
			errs[0] = func() error {
				for k, step := range script {
					if step.reset {
						snd.deltaResetPeer(1)
					}
					if step.readmit {
						snd.evictPeer(1)
						snd.readmitPeer(1)
						snd.xl.Set(1, snd.Now()+1)
					}
					for _, obj := range step.writes {
						if err := snd.Write(obj, confState(obj, k+1)); err != nil {
							return err
						}
					}
					if err := snd.Exchange(ExchangeOpts{Resync: true, SFunc: EveryTick}); err != nil {
						return err
					}
					sent[k] = snd.Store().Clone()
				}
				return nil
			}()
		})
		pb := sim.Spawn(func(*vtime.Proc) {
			errs[1] = func() error {
				for k := range script {
					if err := rcv.Exchange(ExchangeOpts{Resync: true, SFunc: EveryTick}); err != nil {
						return err
					}
					got[k] = rcv.Store().Clone()
				}
				return nil
			}()
		})
		// Note the records of every delta-format DATA frame the sender sends.
		record := func(m *wire.Msg) bool {
			if m.Kind != wire.KindData || m.Mode&wire.ModeDeltaPayload == 0 {
				return true
			}
			decoded, err := xlist.DecodeDeltaRecords(m.Payload)
			if err != nil {
				t.Errorf("%s: undecodable frame: %v", name, err)
			}
			for _, rec := range decoded {
				recs = append(recs, sentRecord{m.Stamp, rec.Obj, rec.Delta})
			}
			return true
		}
		var err error
		snd, rcv, err = factory(hookEndpoint{transport.NewSimEndpoint(pa, 2, nil), record}, transport.NewSimEndpoint(pb, 2, nil))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Runtime{snd, rcv} {
			for obj := store.ID(0); obj < 3; obj++ {
				if err := r.Share(obj, counterBytes(0)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sim.Run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("%s: runtime %d: %v", name, i, err)
			}
		}
		for k := range script {
			for obj := store.ID(0); obj < 3; obj++ {
				want, _ := sent[k].Get(obj)
				have, _ := got[k].Get(obj)
				wv, _ := sent[k].Version(obj)
				hv, _ := got[k].Version(obj)
				if !bytes.Equal(have, want) || hv != wv {
					t.Errorf("%s: after rendezvous %d object %d is %v v%d at the receiver, %v v%d at the sender", name, k+1, obj, have, hv, want, wv)
				}
			}
		}
		// The stamp of each object's last record since the sender's table
		// was last reset: a record stamped k is unproven at tick k+1.
		last := map[store.ID]int64{}
		tick := int64(0)
		for _, rec := range recs {
			for ; tick < rec.stamp; tick++ {
				if step := script[tick]; step.reset || step.readmit {
					clear(last)
				}
			}
			prev, seen := last[rec.obj]
			if rec.delta && (!seen || prev == tick-1) {
				t.Errorf("%s: tick %d sent object %d as a delta, with its previous record at tick %d (seen since the reset: %v)", name, tick, rec.obj, prev, seen)
			}
			if rec.delta {
				deltas++
			}
			last[rec.obj] = tick
		}
		records += len(recs)
	}
	if records > 0 && deltas == 0 {
		t.Fatalf("the delta format sent %d records and no delta: nothing was checked", records)
	}
}

// confState is the state a conformance script writes to obj at tick k: as
// long as any other written state, longer than the registered one.
func confState(obj store.ID, k int) []byte {
	s := make([]byte, 16)
	s[0], s[1+k%15] = byte(obj), byte(k)
	return s
}
