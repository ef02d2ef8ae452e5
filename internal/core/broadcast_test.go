package core

import (
	"bytes"
	"sync"
	"testing"

	"sdso/internal/faultnet"
	"sdso/internal/store"
	"sdso/internal/transport"
	"sdso/internal/wire"
)

// sentFrame is one message a runtime handed to Send: the struct, and its
// encoding (routing is not encoded).
type sentFrame struct {
	m   *wire.Msg
	enc []byte
}

// runsOf checks one call's sends against the run rule (DESIGN.md §15): two
// consecutive peers get the same struct exactly when they are owed the same
// frame, byte for byte. It returns the number of runs — the structs the
// call took — and the longest.
func runsOf(t *testing.T, what string, sends []sentFrame) (runs, longest int) {
	t.Helper()
	run := 0
	for i, s := range sends {
		if i > 0 && (s.m == sends[i-1].m) != bytes.Equal(s.enc, sends[i-1].enc) {
			t.Errorf("%s: peers %d and %d share a struct %v, but their frames are equal %v",
				what, i-1, i, s.m == sends[i-1].m, bytes.Equal(s.enc, sends[i-1].enc))
		}
		if i == 0 || s.m != sends[i-1].m {
			runs, run = runs+1, 0
		}
		run++
		longest = max(longest, run)
	}
	return runs, longest
}

// TestBroadcastIsOneMessage plays an n = 8 lockstep BSYNC game with delta
// encoding on and watches every frame each runtime sends: per Exchange and
// per Done, a run of peers owed the same frame gets one shared struct, so a
// call takes one struct per run, not one per peer. Peer 3 is advertised a
// beacon of its own, so its frame differs and splits the run around it:
// the peers after it get a struct of their own again, and peer 3 must
// receive the beacon it was owed.
func TestBroadcastIsOneMessage(t *testing.T) {
	const n, ticks, odd = 8, 12, 3
	sends := make([][]sentFrame, n)
	var mu sync.Mutex
	var splits, shared, calls int
	check := func(id int, what string) {
		runs, longest := runsOf(t, what, sends[id])
		mu.Lock()
		defer mu.Unlock()
		calls++
		if runs >= 3 && id != odd {
			splits++ // a run on either side of peer 3's frame
		}
		if longest >= 2 {
			shared++
		}
		sends[id] = sends[id][:0]
	}
	runConfigGroup(t, n, func(ep transport.Endpoint) Config {
		id := ep.ID()
		return Config{
			Endpoint: faultnet.NewObservedEndpoint(ep, func(_ int, m *wire.Msg) {
				enc, err := m.MarshalBinary()
				if err != nil {
					t.Error(err)
				}
				sends[id] = append(sends[id], sentFrame{m, enc})
			}),
			MergeDiffs: true, DeltaEncode: true,
			OnBeacon: func(peer int, b []int64) {
				want := 2
				if id == odd {
					want = 3
				}
				if len(b) != want || b[0] != int64(peer) {
					t.Errorf("runtime %d received beacon %v from peer %d, want %d ints from it", id, b, peer, want)
				}
			},
		}
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
			err := r.Exchange(ExchangeOpts{
				Resync: true, SFunc: EveryTick,
				Beacon: func(peer int) []int64 {
					if peer == odd {
						return []int64{int64(r.ID()), r.Now(), 1}
					}
					return []int64{int64(r.ID()), r.Now()}
				},
			})
			if err != nil {
				return err
			}
			check(r.ID(), "exchange")
		}
		if err := r.Write(mine, counterBytes(ticks+1)); err != nil {
			return err
		}
		if err := r.Done(false); err != nil {
			return err
		}
		check(r.ID(), "done")
		return nil
	})
	t.Logf("%d calls: %d split a run around peer %d, %d shared a struct", calls, splits, odd, shared)
	if splits == 0 || shared == 0 {
		t.Fatalf("of %d calls, %d split a run and %d shared a struct: the game never exercised both", calls, splits, shared)
	}
}
