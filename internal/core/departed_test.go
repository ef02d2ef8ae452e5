package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"sdso/internal/faultnet"
	"sdso/internal/metrics"
	"sdso/internal/transport"
	"sdso/internal/vtime"
	"sdso/internal/wire"
)

// TestDepartedPeerIsSentNothing: process 0 writes, marks peer 1 departed
// and exchanges. Marked rightly, the peer calls Done: it is sent no frame
// and its DONE completes the rendezvous with no retransmission. Marked
// wrongly, it exchanges too: its SYNC draws exactly one frame, late, which
// carries the write buffered for it, with no suspicion, retransmission or
// eviction on either side. On mem and on the simulated cluster.
func TestDepartedPeerIsSentNothing(t *testing.T) {
	for _, net := range []string{"mem", "sim"} {
		for _, wrong := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/wrong=%v", net, wrong), func(t *testing.T) {
				var frames []wire.Msg // what 0 sent peer 1, headers only
				var mu sync.Mutex
				mcs := []*metrics.Collector{metrics.NewCollector(), metrics.NewCollector()}
				var seen uint64
				errs := make([]error, 2)
				bodies := []func(ep transport.Endpoint) error{
					func(ep transport.Endpoint) error {
						ep = faultnet.NewObservedEndpoint(ep, func(to int, m *wire.Msg) {
							mu.Lock()
							defer mu.Unlock()
							frames = append(frames, wire.Msg{Kind: m.Kind, Mode: m.Mode, Stamp: m.Stamp})
						})
						r, err := departedRuntime(ep, mcs[0])
						if err != nil {
							return err
						}
						if err := r.Write(1, counterBytes(42)); err != nil {
							return err
						}
						r.Departed(1)
						if err := r.Exchange(ExchangeOpts{Resync: true, SFunc: EveryTick}); err != nil {
							return err
						}
						if !wrong && !r.PeerDone(1) {
							return fmt.Errorf("the rendezvous completed without peer 1's DONE")
						}
						return nil
					},
					func(ep transport.Endpoint) error {
						r, err := departedRuntime(ep, mcs[1])
						if err != nil {
							return err
						}
						if !wrong {
							return r.Done(false)
						}
						if err := r.Exchange(ExchangeOpts{Resync: true, SFunc: EveryTick}); err != nil {
							return err
						}
						state, err := r.Store().Get(1)
						if err != nil {
							return err
						}
						seen = binary.BigEndian.Uint64(state)
						return nil
					},
				}
				playPair(t, net, bodies, errs)
				for i, err := range errs {
					if err != nil {
						t.Fatalf("process %d: %v", i, err)
					}
				}
				want := 0
				if wrong {
					want = 1
				}
				if len(frames) != want {
					t.Fatalf("peer 1 was sent %d frames %+v, want %d", len(frames), frames, want)
				}
				if wrong {
					if f := frames[0]; f.Kind != wire.KindData || f.Mode&wire.ModeSyncPiggyback == 0 || f.Stamp != 1 {
						t.Errorf("the late frame is %+v, want DATA carrying the SYNC of tick 1", f)
					}
					if seen != 42 {
						t.Errorf("peer 1 reads %d after its rendezvous, want the buffered write 42", seen)
					}
				}
				for i, mc := range mcs {
					if s := mc.Snapshot(); s.Suspects != 0 || s.Retransmits != 0 || s.Evictions != 0 {
						t.Errorf("process %d: %d suspicions, %d retransmits, %d evictions, want none", i, s.Suspects, s.Retransmits, s.Evictions)
					}
				}
			})
		}
	}
}

// departedRuntime is a two-process runtime over ep sharing object 1, with a
// rendezvous timeout no healthy run of this test reaches.
func departedRuntime(ep transport.Endpoint, mc *metrics.Collector) (*Runtime, error) {
	r, err := New(Config{Endpoint: ep, Metrics: mc, MergeDiffs: true, RendezvousTimeout: 2 * time.Second})
	if err != nil {
		return nil, err
	}
	return r, r.Share(1, counterBytes(0))
}

// playPair runs bodies[i] as process i of a two-process group over mem
// (one goroutine each) or the simulated cluster, and waits for both.
func playPair(t *testing.T, net string, bodies []func(transport.Endpoint) error, errs []error) {
	t.Helper()
	if net == "mem" {
		mn := transport.NewMemNetwork(2)
		defer mn.Close()
		var wg sync.WaitGroup
		for i, body := range bodies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = body(mn.Endpoint(i))
			}()
		}
		wg.Wait()
		return
	}
	sim := vtime.NewSim(vtime.Config{Horizon: time.Minute})
	eps := make([]transport.Endpoint, 2)
	for i, body := range bodies {
		sim.Spawn(func(*vtime.Proc) { errs[i] = body(eps[i]) })
	}
	for i := range eps {
		eps[i] = transport.NewSimEndpoint(sim.Proc(i), 2, nil)
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("simulation: %v", err)
	}
}
