package wire_test

import (
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"sdso/internal/faultnet"
	"sdso/internal/race"
	"sdso/internal/transport"
	"sdso/internal/wire"
)

// inline reports whether m's Payload lives inside m's own pooled object.
func inline(m *wire.Msg) bool {
	base := uintptr(unsafe.Pointer(m))
	data := uintptr(unsafe.Pointer(unsafe.SliceData(m.Payload)))
	return data >= base && data < base+wire.PooledMsgSize
}

// TestPooledMsgCarriesSmallPayload guards the layout and the lifetime of
// the inline payload (DESIGN.md §15): a pooled message is one 128-byte
// object whose last 48 bytes hold a small payload, a larger payload moves
// to the heap for good, EC's send idiom (GetMsgOf) keeps the bytes, and the
// poisoning endpoint's scribble reaches them, so a receiver that keeps
// m.Payload past Recycle still computes with garbage. It also guards the
// pool's mark, which lets PutMsg tell the pool's structs from any other: it
// costs Msg no bytes, the pool's structs carry it and a Clone does not.
func TestPooledMsgCarriesSmallPayload(t *testing.T) {
	if size := unsafe.Sizeof(wire.Msg{}); size != 80 {
		t.Fatalf("Msg is %d bytes, want 80: the pool's mark and the shared count belong in its padding", size)
	}
	if wire.PooledMsgSize != 128 {
		t.Fatalf("the pooled message is %d bytes, want 128 (an allocator size class; Msg is %d): "+
			"when Msg grows, shrink small by as much", wire.PooledMsgSize, unsafe.Sizeof(wire.Msg{}))
	}
	small := bytes.Repeat([]byte{0xA5}, 48)
	large := bytes.Repeat([]byte{0x5A}, 49)

	t.Run("small payload is inline", func(t *testing.T) {
		m := wire.NewPooledMsg()
		if cap(m.Payload) != len(small) || !inline(m) {
			t.Fatalf("a fresh pooled message has Payload cap %d, inline %v; want 48, true", cap(m.Payload), inline(m))
		}
		m.Payload = append(m.Payload, small...)
		if !inline(m) || !bytes.Equal(m.Payload, small) {
			t.Fatalf("a 48-byte payload left the struct (inline %v) or changed", inline(m))
		}
		if race.Enabled {
			return // the race detector's instrumentation allocates
		}
		var sink *wire.Msg
		allocs := testing.AllocsPerRun(100, func() {
			m := wire.NewPooledMsg()
			m.Payload = append(m.Payload, small...)
			sink = m
		})
		if allocs != 1 || !inline(sink) {
			t.Errorf("a pooled message with a 48-byte payload takes %v allocations, want 1: the struct itself", allocs)
		}
	})

	t.Run("large payload keeps its capacity", func(t *testing.T) {
		// One P, and its private pool slot emptied, so a Put is the next Get
		// unless the race detector's pool drops it; then try a fresh one.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for try := 0; try < 50; try++ {
			m := wire.NewPooledMsg()
			m.Payload = append(m.Payload, large...)
			if inline(m) || cap(m.Payload) < len(large) {
				t.Fatalf("a 49-byte payload stayed inline (%v) or has cap %d", inline(m), cap(m.Payload))
			}
			data, capacity := unsafe.SliceData(m.Payload), cap(m.Payload)
			wire.GetMsg()
			wire.PutMsg(m)
			if got := wire.GetMsg(); got == m {
				if unsafe.SliceData(got.Payload) != data || cap(got.Payload) != capacity || len(got.Payload) != 0 {
					t.Fatalf("PutMsg/GetMsg gave back Payload len %d cap %d, moved %v; want len 0 cap %d, not moved",
						len(got.Payload), cap(got.Payload), unsafe.SliceData(got.Payload) != data, capacity)
				}
				return
			}
		}
		t.Fatal("the pool never gave back the message put into it")
	})

	t.Run("EC send idiom keeps the bytes", func(t *testing.T) {
		for _, payload := range [][]byte{small, large} {
			src := wire.Msg{Kind: wire.KindObjReply, Stamp: 7, Obj: 3, Ints: []int64{1}, Payload: bytes.Clone(payload)}
			// EC sends through GetMsgOf; its copy, over a struct fresh
			// from the pool's New, then GetMsgOf itself.
			m := wire.NewPooledMsg()
			tpl := src
			tpl.Payload = append(m.Payload[:0], tpl.Payload...)
			*m = tpl
			if want := len(payload) <= 48; inline(m) != want {
				t.Errorf("%d-byte payload: inline %v, want %v", len(payload), inline(m), want)
			}
			for _, m := range []*wire.Msg{m, wire.GetMsgOf(src)} {
				if !bytes.Equal(m.Payload, payload) || m.Kind != src.Kind || m.Stamp != src.Stamp || m.Obj != src.Obj {
					t.Fatalf("%d-byte payload: the copied header clobbered the message: %v", len(payload), m)
				}
			}
		}
	})

	t.Run("the pool's mark", func(t *testing.T) {
		m := wire.GetMsg()
		if !wire.Pooled(m) {
			t.Fatal("GetMsg handed out an unmarked struct")
		}
		m.Kind, m.Payload = wire.KindData, append(m.Payload, small...)
		if c := m.Clone(); wire.Pooled(c) {
			t.Fatal("a Clone carries the pool's mark: TCP Send would recycle a struct its caller keeps")
		}
		wire.PutMsg(m)
		if !wire.Pooled(m) {
			t.Fatal("PutMsg dropped the mark")
		}
		lit := &wire.Msg{Kind: wire.KindSync}
		wire.PutMsg(lit)
		if lit.Kind != wire.KindSync || wire.Pooled(lit) || wire.LastRef(lit) {
			t.Fatal("PutMsg recycled a literal, or LastRef says it would")
		}
		// EC's value-copy idiom: a plain *m = t takes t's mark, so a value
		// from a literal would unmark the pool's struct; GetMsgOf keeps it
		// whatever t carries.
		for _, src := range []*wire.Msg{{Kind: wire.KindLockGrant}, wire.GetMsg()} {
			if m := wire.GetMsgOf(*src); !wire.Pooled(m) {
				t.Fatalf("GetMsgOf of a value marked %v handed out an unmarked struct", wire.Pooled(src))
			}
		}
	})

	t.Run("poison reaches the inline bytes", func(t *testing.T) {
		net := transport.NewMemNetwork(2)
		defer net.Close()
		p := faultnet.NewPoisonEndpoint(net.Endpoint(0), true)
		m := wire.NewPooledMsg()
		m.Payload = append(m.Payload, small...)
		kept := m.Payload
		p.Recycle(m)
		if !bytes.Equal(kept, bytes.Repeat([]byte{0xFF}, len(small))) {
			t.Fatalf("a payload kept past a poisoned Recycle reads %x, want every byte 0xFF", kept)
		}
	})
}

// TestSharedMessageRecyclesAtLastReference pins the count under a shared
// message (DESIGN.md §15): after Share(m, 3) three holders read one struct,
// each PutMsg returns one reference, and only the last puts the struct back
// in the pool — the first two leave every field readable. Sharing a shared
// message again splits the caller's reference, as the runtime does for each
// further peer of a run. A Clone or a GetMsgOf copy of a shared message has
// one owner.
func TestSharedMessageRecyclesAtLastReference(t *testing.T) {
	payload, beacon := []byte("one frame for three peers"), []int64{3, 1, 4}
	m := wire.GetMsg()
	m.Kind, m.Src, m.Dst, m.Stamp, m.Mode, m.Ints = wire.KindData, 2, -1, 9, wire.ModeSyncPiggyback, beacon
	m.Payload = append(m.Payload, payload...)
	intact := func() bool {
		return m.Kind == wire.KindData && m.Src == 2 && m.Dst == -1 && m.Stamp == 9 &&
			m.Mode == wire.ModeSyncPiggyback && len(m.Ints) == 3 && bytes.Equal(m.Payload, payload)
	}
	if wire.Shared(m) || !wire.LastRef(m) {
		t.Fatal("a message nobody shared reads as shared")
	}
	wire.Share(m, 3)
	for put := 1; put <= 2; put++ {
		if wire.LastRef(m) {
			t.Fatalf("with %d of 3 references returned, LastRef reports the last", put-1)
		}
		wire.PutMsg(m)
		if !intact() || !wire.Shared(m) {
			t.Fatalf("after %d of 3 PutMsg calls the message reads %v, shared %v", put, m, wire.Shared(m))
		}
	}
	if !wire.LastRef(m) {
		t.Fatal("one reference left, and LastRef does not report it")
	}
	for _, c := range []*wire.Msg{m.Clone(), wire.GetMsgOf(*m)} {
		if wire.Shared(c) {
			t.Fatalf("a copy of a shared message is shared: %v", c)
		}
		// The pool's copy is recycled by one PutMsg; a Clone is not the
		// pool's, so PutMsg leaves it as it was.
		pooled := wire.Pooled(c)
		wire.PutMsg(c)
		if recycled := c.Kind == 0 && len(c.Payload) == 0; recycled != pooled {
			t.Fatalf("one PutMsg of an unshared copy (the pool's: %v) left it reading %v", pooled, c)
		}
	}
	if !intact() {
		t.Fatalf("recycling its copies changed the shared message: %v", m)
	}

	// The runtime's idiom: it keeps a reference while a run of peers is
	// open and splits it for each peer, so the count only ever grows from a
	// reference the caller holds.
	wire.Share(m, 2)
	wire.Share(m, 2)
	for put := 1; put <= 2; put++ {
		wire.PutMsg(m)
		if !intact() {
			t.Fatalf("after %d of 3 PutMsg calls the resplit message reads %v", put, m)
		}
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	wire.GetMsg() // empty this P's private pool slot, so the Put is the next Get
	wire.PutMsg(m)
	if wire.Shared(m) || m.Kind != 0 || m.Ints != nil || len(m.Payload) != 0 {
		t.Fatalf("the last PutMsg left the message reading %v, shared %v", m, wire.Shared(m))
	}
	if race.Enabled {
		return // the race detector's pool drops Puts at random
	}
	if got := wire.GetMsg(); got != m {
		t.Fatal("the last PutMsg did not return the struct to the pool")
	}
}
