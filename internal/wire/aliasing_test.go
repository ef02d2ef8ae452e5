package wire

import (
	"bytes"
	"reflect"
	"testing"

	"sdso/internal/race"
)

// TestUnmarshalDoesNotAliasInput is the regression guard for buffer
// pooling: once ReadFrame recycles frame buffers, a decoded Msg that
// aliased its input would be scribbled over by the next frame. Decode,
// deface the input, and demand the message is untouched.
func TestUnmarshalDoesNotAliasInput(t *testing.T) {
	src := &Msg{
		Kind: KindData, Stamp: 99, Obj: 7, Mode: ModeWrite,
		Ints:    []int64{10, 20, 30},
		Payload: []byte("the quick brown fox"),
	}
	buf, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var m Msg
	if err := m.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 0xAA
	}
	if !reflect.DeepEqual(m.Ints, src.Ints) {
		t.Errorf("Ints aliased the input buffer: %v", m.Ints)
	}
	if !bytes.Equal(m.Payload, src.Payload) {
		t.Errorf("Payload aliased the input buffer: %q", m.Payload)
	}
}

// TestUnmarshalReusesCapacity asserts the reuse semantics: decoding into a
// Msg whose slices have capacity resizes them in place instead of
// reallocating, and still copies every byte — so a round trip through a
// recycled buffer and a recycled Msg, the codec's steady state, never
// touches the heap.
func TestUnmarshalReusesCapacity(t *testing.T) {
	src := &Msg{Kind: KindUpdate, Ints: []int64{1, 2}, Payload: []byte{9, 8, 7}}
	buf, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	m := Msg{Ints: make([]int64, 0, 16), Payload: make([]byte, 0, 64)}
	keptInts, keptPayload := &m.Ints[:1][0], &m.Payload[:1][0]
	if err := m.UnmarshalBinary(buf); err != nil {
		t.Fatal(err)
	}
	if &m.Ints[0] != keptInts || &m.Payload[0] != keptPayload {
		t.Error("UnmarshalBinary reallocated despite sufficient capacity")
	}
	if !reflect.DeepEqual(m.Ints, src.Ints) || !bytes.Equal(m.Payload, src.Payload) {
		t.Errorf("reused decode corrupted fields: ints=%v payload=%v", m.Ints, m.Payload)
	}

	// Shrinking decode: a big message followed by a small one must not
	// leave stale tail data visible.
	big := &Msg{Kind: KindData, Ints: []int64{1, 2, 3, 4, 5}, Payload: bytes.Repeat([]byte{0xFF}, 32)}
	small := &Msg{Kind: KindSync, Ints: []int64{42}, Payload: []byte{1}}
	var out Msg
	for _, src := range []*Msg{big, small} {
		b, err := src.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := out.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out.Ints, src.Ints) || !bytes.Equal(out.Payload, src.Payload) {
			t.Errorf("reused decode of %s: ints=%v payload=%v", src.Kind, out.Ints, out.Payload)
		}
	}

	if race.Enabled {
		return // the detector's instrumentation allocates
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if buf, err = big.AppendBinary(buf[:0]); err == nil {
			err = out.UnmarshalBinary(buf)
		}
	}); allocs != 0 || err != nil {
		t.Errorf("AppendBinary + UnmarshalBinary on recycled storage: %.1f allocations (err %v), want 0", allocs, err)
	}
}

// TestReadFramePoolingDoesNotCorruptEarlierMessages decodes a stream of
// frames through the pooled ReadFrame path, retaining every message, and
// verifies none was clobbered by a later frame reusing its buffer.
func TestReadFramePoolingDoesNotCorruptEarlierMessages(t *testing.T) {
	var stream bytes.Buffer
	var want []*Msg
	for i := 0; i < 8; i++ {
		m := &Msg{
			Kind: KindData, Stamp: int64(100 + i),
			Ints:    []int64{int64(i), int64(i * i)},
			Payload: bytes.Repeat([]byte{byte(i + 1)}, 16+i),
		}
		if err := WriteFrame(&stream, m); err != nil {
			t.Fatal(err)
		}
		want = append(want, m)
	}
	var got []*Msg
	for range want {
		m := new(Msg)
		if err := ReadFrame(&stream, m); err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("frame %d corrupted by pooled buffers:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestCloneDetachesFromReusedMsg: a Clone taken from a decoder's reused Msg
// must survive the next decode into that Msg.
func TestCloneDetachesFromReusedMsg(t *testing.T) {
	a := &Msg{Kind: KindData, Stamp: 1, Ints: []int64{1, 2, 3}, Payload: []byte("aaaa")}
	b := &Msg{Kind: KindData, Stamp: 2, Ints: []int64{9, 9, 9}, Payload: []byte("bbbb")}
	bufA, _ := a.MarshalBinary()
	bufB, _ := b.MarshalBinary()

	var scratch Msg
	if err := scratch.UnmarshalBinary(bufA); err != nil {
		t.Fatal(err)
	}
	kept := scratch.Clone()
	if err := scratch.UnmarshalBinary(bufB); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(kept.Ints, a.Ints) || !bytes.Equal(kept.Payload, a.Payload) {
		t.Errorf("Clone shares storage with the reused decode target: %+v", kept)
	}
}
