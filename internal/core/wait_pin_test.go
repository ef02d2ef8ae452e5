package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"sdso/internal/metrics"
	"sdso/internal/transport"
	"sdso/internal/vtime"
	"sdso/internal/wire"
)

// Process roles of the wait pins: 0 is the runtime under test, 1 a live
// peer that answers, 2 and 4 are silent, and 3 is silent too but the
// tested runtime's transport reports it gone (transport.LivenessReporter).
const (
	pinLive, pinSilent, pinGone, pinSilent2 = 1, 2, 3, 4
	pinTimeout                              = 10 * time.Millisecond
)

// pinEndpoint logs every frame the tested runtime sends, at its virtual
// instant, and reports pinGone as gone.
type pinEndpoint struct {
	*transport.SimEndpoint
	log *[]string
}

func (e pinEndpoint) Send(to int, m *wire.Msg) error {
	*e.log = append(*e.log, fmt.Sprintf("%v %v→%d mode=%d", e.Now(), m.Kind, to, m.Mode))
	return e.SimEndpoint.Send(to, m)
}

func (e pinEndpoint) PeerGone(peer int) bool { return peer == pinGone }

// runWaitPin plays one wait scenario on the simulator: tested runs on
// process 0 over a logging endpoint, live (if set) on process 1, and the
// rest stay silent. It returns the send/evict log, tested's error matches
// and its failure-detection counters.
func runWaitPin(t *testing.T, tested, live func(r *Runtime) error, members []int) string {
	t.Helper()
	sim := vtime.NewSim(vtime.Config{Horizon: 10 * time.Second})
	var log []string
	var testedErr error
	mc := metrics.NewCollector()
	// mk runs on simulator goroutines, where the test may not FailNow.
	mk := func(ep transport.Endpoint, mc *metrics.Collector, debug func(string)) (*Runtime, error) {
		r, err := New(Config{Endpoint: ep, Metrics: mc, RendezvousTimeout: pinTimeout, InitialMembers: members, Debug: debug})
		if err == nil {
			err = r.Share(1, counterBytes(0))
		}
		return r, err
	}
	sim.Spawn(func(p *vtime.Proc) {
		ep := pinEndpoint{transport.NewSimEndpoint(p, 5, nil), &log}
		r, err := mk(ep, mc, func(ev string) {
			if i := strings.Index(ev, " evict peer="); i >= 0 {
				log = append(log, fmt.Sprintf("%v evict %s", ep.Now(), strings.Fields(ev[i+len(" evict peer="):])[0]))
			}
		})
		if err != nil {
			t.Errorf("tested runtime: %v", err)
			return
		}
		testedErr = tested(r)
	})
	sim.Spawn(func(p *vtime.Proc) {
		if live == nil {
			return
		}
		r, err := mk(transport.NewSimEndpoint(p, 5, nil), nil, nil)
		if err == nil {
			err = live(r)
		}
		if err != nil {
			t.Errorf("live peer: %v", err)
		}
	})
	for i := 0; i < 3; i++ {
		sim.Spawn(func(*vtime.Proc) {})
	}
	if err := sim.Run(); err != nil {
		t.Fatalf("sim: %v", err)
	}
	s := mc.Snapshot()
	log = append(log,
		fmt.Sprintf("err nil=%v evicted=%v timeout=%v joinFailed=%v", testedErr == nil,
			errors.Is(testedErr, ErrEvicted), errors.Is(testedErr, ErrSyncTimeout), errors.Is(testedErr, ErrJoinFailed)),
		fmt.Sprintf("suspects=%d retransmits=%d evictions=%d", s.Suspects, s.Retransmits, s.Evictions))
	return strings.Join(log, "\n")
}

// servePolls answers whatever arrives for a while, without exchanging.
func servePolls(r *Runtime) error {
	for r.ep.Now() < 300*time.Millisecond {
		r.Poll()
		r.ep.Compute(time.Millisecond)
	}
	return nil
}

// TestWaitSchedulesPinned pins the retransmit-and-evict schedule of every
// blocking wait — a rendezvous, a SyncGet, a SyncPut and a Join — against
// silent peers on the simulator: the virtual instant of each frame sent and
// of each eviction, in order, the returned error's sentinels and the
// suspect, retransmit and eviction counters. The backoff is 10, 20, 40,
// 80 ms; after the third retransmit the next silence evicts. Process 3's
// transport reports it gone, which evicts it at the first silence instead.
func TestWaitSchedulesPinned(t *testing.T) {
	cases := []struct {
		name         string
		tested, live func(r *Runtime) error
		members      []int
		want         string
	}{
		{
			name: "rendezvous",
			tested: func(r *Runtime) error {
				return r.Exchange(ExchangeOpts{Resync: true, SFunc: EveryTick})
			},
			live: func(r *Runtime) error {
				return r.Exchange(ExchangeOpts{Resync: true, SFunc: EveryTick})
			},
			want: `
0s SYNC→1 mode=0
0s SYNC→2 mode=0
0s SYNC→3 mode=0
0s SYNC→4 mode=0
11ms evict 3
11ms SYNC→2 mode=5
11ms SYNC→4 mode=5
31ms SYNC→2 mode=5
31ms SYNC→4 mode=5
71ms SYNC→2 mode=5
71ms SYNC→4 mode=5
151ms evict 2
151ms evict 4
err nil=true evicted=false timeout=false joinFailed=false
suspects=3 retransmits=6 evictions=3`,
		},
		{
			name: "sync get",
			tested: func(r *Runtime) error {
				if err := r.SyncGet(1, pinLive); err != nil {
					return fmt.Errorf("get from the live peer: %w", err)
				}
				if err := r.SyncGet(1, pinGone); !errors.Is(err, ErrEvicted) {
					return fmt.Errorf("get from the gone peer: %w", err)
				}
				return r.SyncGet(1, pinSilent)
			},
			live: servePolls,
			want: `
0s OBJ_REQ→1 mode=0
2ms OBJ_REQ→3 mode=0
12ms evict 3
12ms OBJ_REQ→2 mode=0
22ms OBJ_REQ→2 mode=0
42ms OBJ_REQ→2 mode=0
82ms OBJ_REQ→2 mode=0
162ms evict 2
err nil=false evicted=true timeout=true joinFailed=false
suspects=2 retransmits=3 evictions=2`,
		},
		{
			name: "sync put",
			tested: func(r *Runtime) error {
				if err := r.SyncPut(1, pinLive); err != nil {
					return fmt.Errorf("put to the live peer: %w", err)
				}
				if err := r.SyncPut(1, pinGone); !errors.Is(err, ErrEvicted) {
					return fmt.Errorf("put to the gone peer: %w", err)
				}
				return r.SyncPut(1, pinSilent2)
			},
			live: servePolls,
			want: `
0s OBJ_REQ→1 mode=3
2ms OBJ_REQ→3 mode=3
12ms evict 3
12ms OBJ_REQ→4 mode=3
22ms OBJ_REQ→4 mode=3
42ms OBJ_REQ→4 mode=3
82ms OBJ_REQ→4 mode=3
162ms evict 4
err nil=false evicted=true timeout=true joinFailed=false
suspects=2 retransmits=3 evictions=2`,
		},
		{
			name:    "join",
			tested:  func(r *Runtime) error { return r.Join(1) },
			live:    servePolls,
			members: []int{0, 1},
			want: `
0s JOIN_REQ→1 mode=0
0s JOIN_REQ→2 mode=0
0s JOIN_REQ→3 mode=0
0s JOIN_REQ→4 mode=0
12ms JOIN_REQ→2 mode=0
12ms evict 3
12ms JOIN_REQ→4 mode=0
32ms JOIN_REQ→2 mode=0
32ms JOIN_REQ→4 mode=0
72ms JOIN_REQ→2 mode=0
72ms JOIN_REQ→4 mode=0
152ms evict 2
152ms evict 4
err nil=true evicted=false timeout=false joinFailed=false
suspects=0 retransmits=6 evictions=3`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := strings.TrimPrefix(tc.want, "\n")
			if got := runWaitPin(t, tc.tested, tc.live, tc.members); got != want {
				t.Errorf("wait schedule moved:\n--- got\n%s\n--- want\n%s", got, want)
			}
		})
	}
}
