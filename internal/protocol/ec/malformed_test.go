package ec_test

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
	"time"

	"sdso/internal/game"
	"sdso/internal/lockmgr"
	"sdso/internal/protocol/ec"
	"sdso/internal/protocol/lrc"
	"sdso/internal/store"
	"sdso/internal/transport"
	"sdso/internal/vtime"
	"sdso/internal/wire"
)

// body is what one process does on the simulator; eps holds every
// process's endpoint, and eps[self] is its own.
type body func(eps []*transport.SimEndpoint, self int) error

// answering is a scripted service: it answers each frame it receives with
// what reply returns, and stops at the first KindShutdown.
func answering(reply func(m *wire.Msg) []wire.Msg) body {
	return func(eps []*transport.SimEndpoint, self int) error {
		ep := eps[self]
		for {
			m, err := ep.Recv()
			if err != nil {
				return err
			}
			if m.Kind == wire.KindShutdown {
				return nil
			}
			for _, r := range reply(m) {
				if err := ep.Send(int(m.Src), &r); err != nil {
					return err
				}
			}
		}
	}
}

// sending is a scripted process that sends frames to one process and stops.
func sending(to int, frames ...wire.Msg) body {
	return func(eps []*transport.SimEndpoint, self int) error {
		for _, f := range frames {
			if err := eps[self].Send(to, &f); err != nil {
				return err
			}
		}
		return nil
	}
}

// runSim plays one body per process of a two-team node layout (applications
// 0 and 1, services 2 and 3) and reports every body's error or panic.
func runSim(t testing.TB, bodies [4]body) []error {
	t.Helper()
	sim := vtime.NewSim(vtime.Config{Horizon: 10 * time.Second})
	errs := make([]error, len(bodies))
	eps := make([]*transport.SimEndpoint, len(bodies))
	for id, b := range bodies {
		sim.Spawn(func(*vtime.Proc) {
			defer func() {
				if r := recover(); r != nil {
					errs[id] = fmt.Errorf("panic: %v", r)
				}
			}()
			if b != nil {
				errs[id] = b(eps, id)
			}
		})
		eps[id] = transport.NewSimEndpoint(sim.Proc(id), len(bodies), nil)
	}
	if err := sim.Run(); err != nil {
		t.Errorf("sim: %v", err)
	}
	return errs
}

// TestECMalformedRepliesDoNotPanic delivers, to a process waiting for a
// reply, a frame of the awaited kind that carries too few Ints or names no
// team, and then a well-formed one. Over TCP such frames come from peers,
// so they are outside input: the waiter must pass over the malformed frame
// and take the good one. Team 1's service is scripted; object 1 is its
// shard. The LRC cases play a tick of the same node under the notice-board
// policy.
func TestECMalformedRepliesDoNotPanic(t *testing.T) {
	cfg := game.DefaultConfig(2, 1)
	start, err := game.StartOf(cfg)
	if err != nil {
		t.Fatal(err)
	}
	world := start.NewStore()
	// scripted answers a lock request with grant's Ints and then a grant
	// naming team 1 the owner of version 5, and a pull with reply's Ints
	// and then version 5.
	scripted := func(grant, reply []int64) body {
		return answering(func(m *wire.Msg) []wire.Msg {
			cell, _ := world.Get(store.ID(m.Obj))
			switch m.Kind {
			case wire.KindLockReq:
				return []wire.Msg{
					{Kind: wire.KindLockGrant, Obj: m.Obj, Mode: m.Mode, Ints: grant},
					{Kind: wire.KindLockGrant, Obj: m.Obj, Mode: m.Mode, Ints: []int64{1, 5}},
				}
			case wire.KindObjReq:
				return []wire.Msg{
					{Kind: wire.KindObjReply, Obj: m.Obj, Stamp: m.Stamp, Ints: reply, Payload: cell},
					{Kind: wire.KindObjReply, Obj: m.Obj, Stamp: m.Stamp, Ints: []int64{5}, Payload: cell},
				}
			}
			return nil
		})
	}
	// acquire is team 0's application acquiring object 1 (which pulls it),
	// then shutting team 1's scripted service down.
	acquire := func(suspect time.Duration) body {
		return func(eps []*transport.SimEndpoint, self int) error {
			n, err := ec.New(ec.NodeConfig{Game: cfg, App: eps[0], Svc: eps[2], SuspectTimeout: suspect})
			if err != nil {
				return err
			}
			err = n.AcquireOne(game.Access{Obj: 1, Write: true})
			if v, _ := n.Store().Version(1); err == nil && v != 5 {
				err = fmt.Errorf("object 1 at version %d after the pull, want 5", v)
			}
			_ = eps[0].Send(3, &wire.Msg{Kind: wire.KindShutdown})
			return err
		}
	}
	cases := []struct {
		name   string
		bodies [4]body
	}{
		{"lock grant without Ints", [4]body{0: acquire(0), 3: scripted(nil, []int64{5})}},
		{"lock grant with one Int", [4]body{0: acquire(0), 3: scripted([]int64{1}, []int64{5})}},
		{"lock grant naming no team", [4]body{0: acquire(0), 3: scripted([]int64{9, 5}, []int64{5})}},
		{"lock grant without Ints, crash tolerant", [4]body{0: acquire(ec.PinTimeout), 3: scripted(nil, []int64{5})}},
		{"object reply without Ints", [4]body{0: acquire(0), 3: scripted([]int64{1, 5}, nil)}},
		{"object reply without Ints, crash tolerant", [4]body{0: acquire(ec.PinTimeout), 3: scripted([]int64{1, 5}, nil)}},
		{"join ack without Ints", [4]body{
			// Team 0's service is rejoining; the malformed ack is followed
			// by both teams' shutdowns, which end its loop.
			2: func(eps []*transport.SimEndpoint, self int) error {
				n, err := ec.New(ec.NodeConfig{Game: cfg, App: eps[0], Svc: eps[2],
					SuspectTimeout: ec.PinTimeout, Rejoin: true, Incarnation: 1})
				if err != nil {
					return err
				}
				return n.RunService()
			},
			3: sending(2,
				wire.Msg{Kind: wire.KindJoinAck, Stamp: 1, Payload: lockmgr.EncodeRecords(nil)},
				wire.Msg{Kind: wire.KindShutdown, Stamp: 0},
				wire.Msg{Kind: wire.KindShutdown, Stamp: 1}),
		}},
		{"LRC object reply without Ints", lrcPull(cfg, world, 1)},
		{"LRC notice naming no team", lrcPull(cfg, world, 9)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for id, err := range runSim(t, tc.bodies) {
				if err != nil {
					t.Errorf("process %d: %v", id, err)
				}
			}
		})
	}
}

// lrcPull plays one tick of an LRC game as team 0 against a scripted team
// 1. Each of its grants notices version 5 of the granted object, written by
// writer, so when writer is team 1 team 0 pulls every object of its lock
// set that team 1 manages, and each pull is answered with a malformed reply
// before the good one. A writer that is no team is no one to pull from.
func lrcPull(cfg game.Config, world *store.Store, writer uint64) [4]body {
	cfg.MaxTicks = 1
	var n *ec.Node
	node := func(eps []*transport.SimEndpoint) (err error) {
		if n == nil {
			n, err = lrc.New(ec.NodeConfig{Game: cfg, App: eps[0], Svc: eps[2]})
		}
		return err
	}
	return [4]body{
		0: func(eps []*transport.SimEndpoint, self int) error {
			if err := node(eps); err != nil {
				return err
			}
			_, err := n.RunApp()
			return err
		},
		1: sending(2, wire.Msg{Kind: wire.KindShutdown, Stamp: 1}),
		2: func(eps []*transport.SimEndpoint, self int) error {
			if err := node(eps); err != nil {
				return err
			}
			return n.RunService()
		},
		3: answering(func(m *wire.Msg) []wire.Msg {
			cell, _ := world.Get(store.ID(m.Obj))
			switch m.Kind {
			case wire.KindLockReq:
				// A board of one notice: (object, writer, version 5).
				notice := binary.AppendUvarint(binary.AppendUvarint(nil, 1), uint64(m.Obj))
				notice = binary.AppendUvarint(binary.AppendUvarint(notice, writer), 5)
				return []wire.Msg{{Kind: wire.KindLockGrant, Obj: m.Obj, Mode: m.Mode, Payload: notice}}
			case wire.KindObjReq:
				return []wire.Msg{
					{Kind: wire.KindObjReply, Obj: m.Obj, Stamp: m.Stamp, Payload: cell},
					{Kind: wire.KindObjReply, Obj: m.Obj, Stamp: m.Stamp, Ints: []int64{5}, Payload: cell},
				}
			}
			return nil
		}),
	}
}

// FuzzECService delivers one frame of any kind, with arbitrary Ints (the
// varints of ints) and payload, from any other process (from picks app 0,
// app 1 or service 1) to the service loop
// of a crash-tolerant node that is rejoining, followed by both teams'
// shutdowns. Whatever the frame, the loop must neither panic nor hang.
func FuzzECService(f *testing.F) {
	recs := lockmgr.EncodeRecords(nil)
	f.Add(uint8(wire.KindJoinAck), uint8(2), uint32(0), int64(1), uint8(0), []byte{}, recs)
	f.Add(uint8(wire.KindLockGrant), uint8(2), uint32(1), int64(0), wire.ModeWrite, []byte{2}, []byte{})
	f.Add(uint8(wire.KindObjReply), uint8(2), uint32(1), int64(1), uint8(0), []byte{}, []byte{1})
	f.Add(uint8(wire.KindJoinAck), uint8(2), uint32(0), int64(1), uint8(0), []byte{2, 2, 3}, recs)
	f.Add(uint8(wire.KindLockReq), uint8(1), uint32(2), int64(0), wire.ModeWrite, []byte{}, []byte{})
	f.Add(uint8(wire.KindCrash), uint8(1), uint32(0), int64(1), uint8(0), []byte{}, []byte{})
	cfg := game.DefaultConfig(2, 1)
	f.Fuzz(func(t *testing.T, kind, from uint8, obj uint32, stamp int64, mode uint8, ints, payload []byte) {
		frame := wire.Msg{Kind: wire.Kind(kind), Obj: obj, Stamp: stamp, Mode: mode, Payload: payload}
		for len(ints) > 0 {
			v, k := binary.Varint(ints)
			if k <= 0 {
				break
			}
			frame.Ints, ints = append(frame.Ints, v), ints[k:]
		}
		var bodies [4]body
		bodies[2] = func(eps []*transport.SimEndpoint, self int) error {
			n, err := ec.New(ec.NodeConfig{Game: cfg, App: eps[0], Svc: eps[2],
				SuspectTimeout: ec.PinTimeout, Rejoin: true, Incarnation: 1})
			if err == nil {
				err = n.RunService()
			}
			return err
		}
		bodies[[]int{0, 1, 3}[from%3]] = sending(2, frame,
			wire.Msg{Kind: wire.KindShutdown, Stamp: 0}, wire.Msg{Kind: wire.KindShutdown, Stamp: 1})
		if err := runSim(t, bodies)[2]; err != nil && strings.HasPrefix(err.Error(), "panic") {
			t.Fatalf("service, given %v: %v", &frame, err)
		}
	})
}
