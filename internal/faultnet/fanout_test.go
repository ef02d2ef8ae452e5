package faultnet

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sdso/internal/transport"
	"sdso/internal/wire"
)

// fanoutPlan injects drops, duplicates and delays on every link and a
// one-way partition 0→2, the fault mix the differential test must be
// invisible under.
func fanoutPlan(seed int64) *Plan {
	return &Plan{
		Seed:    seed,
		Default: LinkFaults{DropProb: 0.2, DupProb: 0.1, DelayProb: 0.1, DelaySends: 3},
		OneWay:  [][2]int{{0, 2}},
	}
}

// deliveredKey flattens one received message for sequence comparison. It
// leaves Dst out: a shared delivery keeps its sender's Dst -1.
func deliveredKey(m *wire.Msg) string {
	return fmt.Sprintf("%d:%d:%d:%x;", m.Kind, m.Stamp, m.Src, m.Payload)
}

// How runFanout sends each round.
const (
	perPeer  = iota // a Send of a private clone per destination
	sendMany        // transport.SendMany
	held            // SendMany's shared message, with a reference the test keeps
)

// runFanout replays a fixed 60-round fanout schedule from node 0 to nodes
// 1..3, in the given mode, and returns the per-receiver delivered
// sequences plus node 0's decision log. Receivers recycle what they get,
// and node 0's Close re-injects what its links still delay. In mode held,
// every round's message must then be back to the test's one reference,
// unchanged: no dropped, duplicated or delayed delivery kept or returned
// one too many.
func runFanout(t *testing.T, plan *Plan, mode int) ([3][]byte, []byte) {
	t.Helper()
	net := transport.NewMemNetwork(4)
	defer net.Close()
	ep := plan.Wrap(net.Endpoint(0), nil)
	dsts := []int{1, 2, 3}
	var kept []*wire.Msg
	for i := 0; i < 60; i++ {
		m := &wire.Msg{Kind: wire.KindData, Stamp: int64(i), Ints: []int64{int64(i)}, Payload: []byte{byte(i), byte(i >> 8)}}
		var err error
		switch mode {
		case perPeer:
			for _, to := range dsts {
				if serr := ep.Send(to, m.Clone()); serr != nil {
					err = serr
				}
			}
		case sendMany:
			err = transport.SendMany(ep, dsts, m)
		case held:
			c := wire.GetMsgOf(*m)
			c.Dst = -1
			wire.Share(c, len(dsts)+1)
			kept = append(kept, c)
			for _, to := range dsts {
				if serr := ep.Send(to, c); serr != nil {
					err = serr
				}
			}
		}
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	log := ep.DecisionLog()
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	var got [3][]byte
	for i := 0; i < 3; i++ {
		rx := net.Endpoint(i + 1)
		for {
			m, ok, err := rx.TryRecv()
			if err != nil || !ok {
				break
			}
			got[i] = append(got[i], deliveredKey(m)...)
			transport.Recycle(rx, m)
		}
	}
	for i, c := range kept {
		if !wire.LastRef(c) || c.Kind != wire.KindData || c.Stamp != int64(i) || !bytes.Equal(c.Payload, []byte{byte(i), 0}) {
			t.Fatalf("round %d: with every delivery recycled the shared message reads %v, or the test's reference is not its last", i, c)
		}
		wire.PutMsg(c)
	}
	return got, log
}

// transport.SendMany through faultnet must be indistinguishable from the
// per-peer Send loop under drops, duplicates, delays and one-way
// partitions: identical per-link fault decisions and identical delivered
// sequences at every receiver. The shared message it sends comes back to
// its last reference whatever the links did with it.
func TestSendManyDifferential(t *testing.T) {
	for _, seed := range []int64{7, 13, 21, 33, 57} {
		gotLoop, logLoop := runFanout(t, fanoutPlan(seed), perPeer)
		for _, mode := range []int{sendMany, held} {
			gotMany, logMany := runFanout(t, fanoutPlan(seed), mode)
			if !bytes.Equal(logLoop, logMany) {
				t.Fatalf("seed %d mode %d: decision logs diverged:\nloop: %s\nmany: %s", seed, mode, logLoop, logMany)
			}
			for i := range gotLoop {
				if !bytes.Equal(gotLoop[i], gotMany[i]) {
					t.Fatalf("seed %d mode %d receiver %d: delivered sequences diverged:\nloop: %s\nmany: %s",
						seed, mode, i+1, gotLoop[i], gotMany[i])
				}
			}
		}
		// The one-way partition must actually bite: receiver 2 (node 2)
		// gets nothing, the others get something; and the draws must
		// duplicate and delay as well as drop.
		if len(gotLoop[1]) != 0 {
			t.Fatalf("seed %d: one-way partition 0→2 leaked: %s", seed, gotLoop[1])
		}
		if len(gotLoop[0]) == 0 || len(gotLoop[2]) == 0 {
			t.Fatalf("seed %d: drops swallowed every message", seed)
		}
		for _, dec := range []byte{decDrop, decDup, decDelay} {
			if !bytes.Contains(logLoop, []byte{dec}) {
				t.Fatalf("seed %d: no %q decision in %s", seed, dec, logLoop)
			}
		}
	}
}

// transport.Broadcast over a crash-stopping sender: the crash trips on the
// first destination, the remaining sends report the crash rather than
// silently half-broadcasting, and errors.Is sees ErrCrashed through the
// join — the regression shape for the old first-error-aborts Broadcast.
func TestBroadcastCrashStop(t *testing.T) {
	net := transport.NewMemNetwork(4)
	defer net.Close()
	plan := &Plan{Seed: 1, Crashes: map[int]Crash{0: {AtTick: 5}}}
	ep := plan.Wrap(net.Endpoint(0), nil)

	// Below the crash tick the broadcast reaches everyone.
	if err := transport.Broadcast(ep, &wire.Msg{Kind: wire.KindData, Stamp: 4}); err != nil {
		t.Fatalf("pre-crash broadcast: %v", err)
	}
	for i := 1; i < 4; i++ {
		if _, ok, _ := net.Endpoint(i).TryRecv(); !ok {
			t.Fatalf("node %d missed the pre-crash broadcast", i)
		}
	}

	// At the crash tick the sender goes silent; the best-effort broadcast
	// still visits every destination and reports the crash, joined.
	err := transport.Broadcast(ep, &wire.Msg{Kind: wire.KindData, Stamp: 5})
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash broadcast error = %v, want ErrCrashed", err)
	}
	for i := 1; i < 4; i++ {
		if m, ok, _ := net.Endpoint(i).TryRecv(); ok {
			t.Fatalf("node %d received tick-5 traffic from a crashed sender: %v", i, m)
		}
	}
}
