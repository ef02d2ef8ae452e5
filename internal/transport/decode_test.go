package transport

import (
	"bytes"
	"runtime"
	"slices"
	"testing"
	"time"

	"sdso/internal/race"
	"sdso/internal/wire"
)

// beacon14 is a lookahead beacon's size on an n = 8 board: six tanks and
// the box flag.
var beacon14 = []int64{6, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0}

// TestDecodePathAllocs pins what receiving a frame costs once warm. Over
// TCP a Send + Flush + Recv + Recycle round trip of a DATA frame carrying a
// 14-int beacon allocates nothing: Send gives the pooled struct back once
// its frame is encoded (DESIGN.md §15), the length header is read into the
// pooled frame buffer and the Ints are carved from the endpoint's chunk. A
// shared message delivered to two mem receivers allocates nothing either.
func TestDecodePathAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	check := func(t *testing.T, got *wire.Msg, err error, stamp int64) {
		t.Helper()
		if err != nil || got.Kind != wire.KindData || got.Stamp != stamp || !slices.Equal(got.Ints, beacon14) {
			t.Fatalf("delivered %v ints=%v (err %v), want DATA stamped %d with the beacon", got, got.Ints, err, stamp)
		}
	}
	measure := func(t *testing.T, ceiling float64, roundTrip func()) {
		t.Helper()
		for i := 0; i < 64; i++ { // warm the pools, the chunk and the mailbox
			roundTrip()
		}
		if got := testing.AllocsPerRun(500, roundTrip); got > ceiling {
			t.Errorf("%.1f allocations a round trip, budget %.0f", got, ceiling)
		}
	}

	t.Run("tcp", func(t *testing.T) {
		eps := tcpPair(t, TCPConfig{FlushThreshold: 1 << 20, CloseGrace: 100 * time.Millisecond})
		defer eps[0].Close()
		defer eps[1].Close()
		stamp := int64(0)
		measure(t, 0, func() {
			stamp++
			m := wire.GetMsg()
			m.Kind, m.Mode, m.Stamp, m.Ints = wire.KindData, wire.ModeSyncPiggyback, stamp, beacon14
			if err := eps[0].Send(1, m); err != nil {
				t.Fatal(err)
			}
			if err := eps[0].Flush(); err != nil {
				t.Fatal(err)
			}
			got, err := eps[1].Recv()
			check(t, got, err, stamp)
			eps[1].Recycle(got)
		})
	})

	t.Run("mem", func(t *testing.T) {
		net := NewMemNetwork(3)
		defer net.Close()
		measure(t, 0, func() {
			m := wire.GetMsg()
			m.Kind, m.Mode, m.Stamp, m.Ints, m.Dst = wire.KindData, wire.ModeSyncPiggyback, 3, beacon14, -1
			wire.Share(m, 2)
			for to := 1; to <= 2; to++ {
				if err := net.Endpoint(0).Send(to, m); err != nil {
					t.Fatal(err)
				}
			}
			for to := 1; to <= 2; to++ {
				got, err := net.Endpoint(to).Recv()
				check(t, got, err, 3)
				Recycle(net.Endpoint(to), got)
			}
		})
	})
}

// TestTCPSendReturnsPooledStruct pins which structs TCP Send gives back to
// the pool (DESIGN.md §15). A GetMsg struct is recycled once its frame is
// encoded, and the peer decodes that frame exactly. A Clone and a literal
// are not the pool's: Send leaves them untouched, so a caller may send one
// again, as the benchmark's panel sends its one ping.
func TestTCPSendReturnsPooledStruct(t *testing.T) {
	eps := tcpPair(t, TCPConfig{FlushThreshold: 1 << 20, CloseGrace: 100 * time.Millisecond})
	defer eps[0].Close()
	defer eps[1].Close()
	want := &wire.Msg{Kind: wire.KindData, Mode: wire.ModeSyncPiggyback, Stamp: 9, Obj: 4, Ints: beacon14, Payload: []byte("a small payload")}
	wantFrame, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func(what string, m *wire.Msg, recycled bool) {
		t.Helper()
		if err := eps[0].Send(1, m); err != nil {
			t.Fatal(err)
		}
		// Read before Flush: once the frame is out, the peer's read loop
		// may take the recycled struct from the pool for its decode.
		if got := m.Kind == 0 && len(m.Payload) == 0; got != recycled {
			t.Fatalf("%s: after Send it reads %v, recycled %v, want %v", what, m, got, recycled)
		}
		if err := eps[0].Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := eps[1].Recv()
		if err != nil {
			t.Fatal(err)
		}
		if frame, err := got.MarshalBinary(); err != nil || !bytes.Equal(frame, wantFrame) {
			t.Fatalf("%s: the peer decoded %v (err %v), want %v", what, got, err, want)
		}
		eps[1].Recycle(got)
	}

	pooled := func() *wire.Msg {
		m := wire.GetMsg()
		m.Kind, m.Mode, m.Stamp, m.Obj, m.Ints = want.Kind, want.Mode, want.Stamp, want.Obj, want.Ints
		m.Payload = append(m.Payload, want.Payload...)
		return m
	}
	roundTrip("a GetMsg struct", pooled(), true)
	for _, kept := range []struct {
		what string
		m    *wire.Msg
	}{{"a Clone of a GetMsg struct", pooled().Clone()}, {"a literal", &wire.Msg{
		Kind: want.Kind, Mode: want.Mode, Stamp: want.Stamp, Obj: want.Obj, Ints: want.Ints, Payload: want.Payload,
	}}} {
		for try := 0; try < 2; try++ {
			roundTrip(kept.what, kept.m, false)
			if frame, err := kept.m.MarshalBinary(); err != nil || !bytes.Equal(frame, wantFrame) {
				t.Fatalf("%s: Send changed it to %v", kept.what, kept.m)
			}
		}
	}
}

// TestTCPReadLoopsShareOneChunk: a TCP endpoint's read loops — one a link,
// legacy or session — carve from one chunk concurrently, so three peers
// stream frames with distinct Ints at one receiver, which keeps every
// delivered Ints until the end: two loops handed overlapping slices would
// show as a kept Ints overwritten by a later frame (and, under -race, as a
// report).
func TestTCPReadLoopsShareOneChunk(t *testing.T) {
	const peers, frames = 3, 400
	for _, tc := range []struct {
		name string
		cfg  TCPConfig
	}{
		{"legacy", TCPConfig{CloseGrace: 100 * time.Millisecond}},
		{"session", TCPConfig{CloseGrace: 100 * time.Millisecond, Reconnect: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eps := tcpMesh(t, peers+1, tc.cfg)
			defer func() {
				for _, ep := range eps {
					ep.Close()
				}
			}()
			ints := func(src, k int) []int64 { return []int64{int64(src), int64(k), int64(src*frames + k)} }
			errs := make(chan error, peers)
			for src := 1; src <= peers; src++ {
				go func(src int) {
					for k := 0; k < frames; k++ {
						if err := eps[src].Send(0, &wire.Msg{Kind: wire.KindSync, Stamp: int64(k), Ints: ints(src, k)}); err != nil {
							errs <- err
							return
						}
					}
					errs <- nil
				}(src)
			}
			for src := 1; src <= peers; src++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			kept := make([]*wire.Msg, 0, peers*frames)
			for len(kept) < peers*frames {
				m, err := eps[0].Recv()
				if err != nil {
					t.Fatal(err)
				}
				kept = append(kept, m)
			}
			for _, m := range kept {
				if want := ints(int(m.Src), int(m.Stamp)); !slices.Equal(m.Ints, want) || cap(m.Ints) != len(m.Ints) {
					t.Fatalf("frame %d from %d carries %v (cap %d), want %v", m.Stamp, m.Src, m.Ints, cap(m.Ints), want)
				}
			}
		})
	}
}

// TestDecodedIntsRetention holds an endpoint's decoded Ints to the chunk's
// retention law (DESIGN.md §15): a live Ints pins at most the chunk it was
// carved from, so an endpoint retains at most (live decoded Ints + 1) ×
// 1 KB, however many frames it decoded. TCP is the transport that decodes.
// The worst case is arranged on purpose — the one Ints kept is the last
// carved from its chunk — and only one chunk in four has a survivor, so an
// endpoint that kept its chunks would hold four times the bound.
func TestDecodedIntsRetention(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector inflates the heap")
	}
	const (
		chunk    = 1024 // bytes in a wire.IntsChunk
		perChunk = 16   // 8-int frames a chunk holds
		live     = 2048 // Ints kept
		spacing  = 4    // chunks carved per Ints kept
		batch    = 64   // frames sent between flushes
	)
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // twice: a sync.Pool lets go of its contents a cycle late
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	eps := tcpPair(t, TCPConfig{FlushThreshold: 1 << 20, CloseGrace: 100 * time.Millisecond})
	defer eps[0].Close()
	defer eps[1].Close()
	m := &wire.Msg{Kind: wire.KindSync, Ints: []int64{1, 2, 3, 4, 5, 6, 7, 8}}
	// frames sends a batch of m, a literal TCP Send leaves alone, and hands
	// each decoded delivery to keep before recycling it.
	frames := func(keep func(*wire.Msg)) {
		for i := 0; i < batch; i++ {
			if err := eps[0].Send(1, m); err != nil {
				t.Fatal(err)
			}
		}
		if err := eps[0].Flush(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < batch; i++ {
			got, err := eps[1].Recv()
			if err != nil {
				t.Fatal(err)
			}
			keep(got)
			eps[1].Recycle(got)
		}
	}
	frames(func(*wire.Msg) {}) // grow the queues and the mailbox first
	kept := make([][]int64, 0, live)

	before := heap()
	decoded := 0
	for decoded < live*spacing*perChunk {
		frames(func(got *wire.Msg) {
			if decoded++; decoded%(spacing*perChunk) == 0 {
				kept = append(kept, got.Ints)
			}
		})
	}
	retained, bound := int64(heap()-before), int64((live+1)*chunk+16<<10)
	t.Logf("%d frames decoded, %d Ints kept: %d B retained, bound %d", decoded, len(kept), retained, bound)
	if retained > bound {
		t.Errorf("the endpoint retains %d B for %d live Ints, bound %d = (live + 1) × chunk + slack", retained, len(kept), bound)
	}
	for _, ints := range kept {
		if !slices.Equal(ints, m.Ints) {
			t.Fatalf("a kept Ints changed under later decodes: %v", ints)
		}
	}
}
