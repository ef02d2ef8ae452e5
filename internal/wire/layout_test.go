package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"sdso/internal/race"
)

// boundaries are the values on either side of every varint width change a
// zig-zag int64 can make in practice (1↔2 bytes at ±64, 2↔3 at ±8192) plus
// the two ten-byte extremes.
var boundaries = []int64{
	0, 1, -1, 63, -63, 64, -64, 8191, -8191, 8192, -8192, math.MinInt64, math.MaxInt64,
}

// layoutMsgs generates the messages the size law is checked on: every
// boundary as Stamp and as an int, routing words set (they must cost
// nothing), Obj across its widths, 0…MaxInts ints, empty to large payloads.
func layoutMsgs() []*Msg {
	var ms []*Msg
	for _, stamp := range boundaries {
		for _, obj := range []uint32{0, 127, 128, 1 << 21, math.MaxUint32} {
			ms = append(ms, &Msg{
				Kind: KindData, Mode: ModeSyncPiggyback | ModeDeltaPayload,
				Src: -1, Dst: math.MinInt32, Stamp: stamp, Obj: obj,
				Ints: boundaries, Payload: []byte("payload"),
			})
		}
	}
	many := make([]int64, MaxInts)
	for i := range many {
		many[i] = boundaries[i%len(boundaries)]
	}
	for _, nInts := range []int{0, 1, 127, 128, MaxInts} {
		for _, nPayload := range []int{0, 1, 127, 128, 1 << 14, 70000} {
			ms = append(ms, &Msg{
				Kind: KindUpdate, Src: math.MaxInt32, Dst: -7, Stamp: int64(nInts),
				Ints: many[:nInts], Payload: bytes.Repeat([]byte{0xA5}, nPayload),
			})
		}
	}
	return ms
}

// TestSizeLaw: the three ways to learn a message's size agree, to the
// byte, and the bytes decode to the message. The transports charge
// EncodedSize without encoding, so a size that drifted from the encoder
// would mis-state every byte metric silently.
func TestSizeLaw(t *testing.T) {
	if got := (&Msg{Kind: KindSync}).EncodedSize(); got != 6 || encodedHeaderSize != 6 {
		t.Errorf("smallest message is %d bytes (encodedHeaderSize %d), want 6: kind, mode and four one-byte varints",
			got, encodedHeaderSize)
	}
	for _, m := range layoutMsgs() {
		size := m.EncodedSize()
		b, err := m.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%v: AppendBinary: %v", m, err)
		}
		e, err := EncodeFrame(m)
		if err != nil {
			t.Fatalf("%v: EncodeFrame: %v", m, err)
		}
		if len(b) != size || e.EncodedSize() != size || e.Len() != size+4 {
			t.Errorf("%v: EncodedSize %d, AppendBinary %d, frame body %d, frame %d",
				m, size, len(b), e.EncodedSize(), e.Len())
		}
		if size > maxEncodedSize {
			t.Errorf("%v: %d bytes exceed maxEncodedSize %d, ReadFrame would refuse it", m, size, maxEncodedSize)
		}
		var got Msg
		if err := got.UnmarshalBinary(b); err != nil {
			t.Fatalf("%v: UnmarshalBinary: %v", m, err)
		}
		assertMsgEqual(t, &got, m)

		// Routing is not encoded: the same message bound elsewhere writes
		// the same bytes, and a decode leaves the target's routing alone.
		rerouted := *m
		rerouted.Src, rerouted.Dst = -3, 1<<30
		if rb, _ := rerouted.AppendBinary(nil); !bytes.Equal(rb, b) {
			t.Errorf("%v: routing changed the encoding:\n  %x\n  %x", m, b, rb)
		}
		got.Src, got.Dst = 5, 6
		if err := e.DecodeInto(&got); err != nil {
			t.Fatalf("%v: DecodeInto: %v", m, err)
		}
		if got.Src != 5 || got.Dst != 6 {
			t.Errorf("%v: the decoder wrote routing %d->%d", m, got.Src, got.Dst)
		}
		if e.Kind() != got.Kind || e.Stamp() != got.Stamp {
			t.Errorf("%v: peek = (%v, %d), decode = (%v, %d)", m, e.Kind(), e.Stamp(), got.Kind, got.Stamp)
		}
		e.Release()
	}
}

type hostileFrame struct {
	name string
	buf  []byte
	want error
}

// hostileFrames are bodies a peer could put on a socket that no encoder
// writes. Each is built from a prefix and hand-laid varints so the table
// reads as the layout does.
func hostileFrames() []hostileFrame {
	prefix := []byte{byte(KindData), 0} // kind, mode
	frame := func(parts ...[]byte) []byte {
		return bytes.Join(append([][]byte{prefix}, parts...), nil)
	}
	uv := func(x uint64) []byte { return binary.AppendUvarint(nil, x) }
	elevenByteVarint := append(bytes.Repeat([]byte{0x80}, 10), 0x01)
	overflowVarint := append(bytes.Repeat([]byte{0xFF}, 9), 0x02) // ten bytes, bit 64 set

	valid, _ := (&Msg{
		Kind: KindData, Mode: ModeSyncPiggyback, Src: 1, Dst: 2, Stamp: math.MinInt64,
		Obj: math.MaxUint32, Ints: boundaries, Payload: bytes.Repeat([]byte{7}, 200),
	}).MarshalBinary()

	cases := []hostileFrame{
		{"11-byte stamp", frame(elevenByteVarint, uv(0), uv(0), uv(0)), ErrTooLarge},
		{"stamp overflows 64 bits", frame(overflowVarint, uv(0), uv(0), uv(0)), ErrTooLarge},
		{"obj wider than 32 bits", frame(uv(0), uv(1<<32), uv(0), uv(0)), ErrTooLarge},
		{"nInts over MaxInts", frame(uv(0), uv(0), uv(MaxInts+1), uv(0), make([]byte, MaxInts+1)), ErrTooLarge},
		{"nPayload over MaxPayload", frame(uv(0), uv(0), uv(0), uv(MaxPayload+1)), ErrTooLarge},
		{"nInts past the end", frame(uv(0), uv(0), uv(5), uv(0), []byte{1, 2}), ErrShortBuffer},
		{"nPayload past the end", frame(uv(0), uv(0), uv(0), uv(5), []byte{1, 2}), ErrShortBuffer},
		{"counts sum past the end", frame(uv(0), uv(0), uv(3), uv(3), []byte{1, 2, 3, 4}), ErrShortBuffer},
		{"11-byte int", frame(uv(0), uv(0), uv(1), uv(0), elevenByteVarint), ErrTooLarge},
		{"last int runs into the payload", frame(uv(0), uv(0), uv(2), uv(1), []byte{1, 0x80, 9}), ErrShortBuffer},
		{"bytes between ints and payload", frame(uv(0), uv(0), uv(1), uv(1), []byte{1, 2, 3}), ErrShortBuffer},
		{"trailing garbage", append(bytes.Clone(valid), 0xFF), ErrShortBuffer},
		{"header varint cut by the end", frame(uv(0), uv(0), uv(0), []byte{0x80}), ErrShortBuffer},
	}
	for cut := 0; cut < len(valid); cut++ {
		cases = append(cases, hostileFrame{"truncated", valid[:cut], ErrShortBuffer})
	}
	return cases
}

// TestHostileFrames: a frame no encoder writes is refused with a sentinel
// error before the decoder touches its target or the heap — the target is
// typically a pooled Msg whose slices another frame will reuse.
func TestHostileFrames(t *testing.T) {
	prefilled := func() *Msg {
		return &Msg{
			Kind: KindLockGrant, Mode: ModeWrite, Src: 11, Dst: 12, Stamp: 13, Obj: 14,
			Ints: []int64{7, 8, 9}, Payload: []byte("keep"),
		}
	}
	for _, tc := range hostileFrames() {
		m, want := prefilled(), prefilled()
		err := m.UnmarshalBinary(tc.buf)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s (%d B): UnmarshalBinary = %v, want %v", tc.name, len(tc.buf), err, tc.want)
		}
		if !reflect.DeepEqual(m, want) {
			t.Errorf("%s (%d B): rejected frame changed its target:\n got %+v\nwant %+v", tc.name, len(tc.buf), m, want)
		}
		if race.Enabled {
			continue // the detector's instrumentation allocates
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = m.UnmarshalBinary(tc.buf) }); allocs != 0 {
			t.Errorf("%s (%d B): rejecting allocates %.1f times", tc.name, len(tc.buf), allocs)
		}
	}
}
