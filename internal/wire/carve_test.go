package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"
)

// overlaps reports whether two int64 slices share any backing memory within
// their capacities.
func overlaps(a, b []int64) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return a0 < b0+uintptr(cap(b))*8 && b0 < a0+uintptr(cap(a))*8
}

// TestIntsChunkCarving pins the chunk's contract: a carved slice has
// cap == len, so appending to it cannot reach a neighbour; no two carved
// slices share memory, across chunk boundaries too; a chunk is never
// reused, so what was carved keeps its values whatever is carved after it;
// and a request above a quarter chunk gets a slice of its own.
func TestIntsChunkCarving(t *testing.T) {
	var c IntsChunk
	var carved [][]int64
	for i := 0; i < 3*intsChunkLen; i++ {
		n := i % 7 // zero-length requests included
		s := c.Take(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("Take(%d) = len %d cap %d, want cap == len == %d", n, len(s), cap(s), n)
		}
		for k := range s {
			s[k] = int64(i)
		}
		carved = append(carved, s)
	}
	kept := c.Carve(1, 2, 3)
	big := c.Take(intsChunkLen/4 + 1)
	if cap(big) != intsChunkLen/4+1 || overlaps(big, c[:cap(c)]) {
		t.Error("a request above a quarter chunk was carved from the chunk")
	}
	carved = append(carved, kept, big)
	for i, a := range carved {
		for j := i + 1; j < len(carved); j++ {
			if overlaps(a, carved[j]) {
				t.Fatalf("carved slices %d and %d share memory", i, j)
			}
		}
	}
	for i, s := range carved[:3*intsChunkLen] {
		for _, v := range s {
			if v != int64(i) {
				t.Fatalf("carved slice %d changed under later carving: %v", i, s)
			}
		}
	}
	if kept[0] != 1 || kept[1] != 2 || kept[2] != 3 {
		t.Errorf("Carve(1, 2, 3) = %v", kept)
	}
}

// decodeForms are the two ways in which a frame body reaches the decode
// body: a plain buffer and a stream.
var decodeForms = []struct {
	name   string
	decode func(body []byte, m *Msg, src IntsSource) error
}{
	{"unmarshal", func(body []byte, m *Msg, src IntsSource) error { return m.unmarshal(body, src) }},
	{"ReadFrameCarved", func(body []byte, m *Msg, src IntsSource) error {
		frame := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
		return ReadFrameCarved(bytes.NewReader(append(frame, body...)), m, src)
	}},
}

// TestCarvedDecodeLeavesIntsAlone: a decode given a chunk takes m.Ints from
// it and never writes into the slice m.Ints held — a pooled struct's old
// Ints may be a beacon its previous receiver kept. A decode that reuses the
// old slice's capacity, as UnmarshalBinary does, fails here.
func TestCarvedDecodeLeavesIntsAlone(t *testing.T) {
	src := &Msg{Kind: KindSync, Stamp: 9, Ints: []int64{4, 5, 6}}
	body, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for _, form := range decodeForms {
		t.Run(form.name, func(t *testing.T) {
			kept := append(make([]int64, 0, 16), 7, 8, 9)
			m := &Msg{Ints: kept}
			var c IntsChunk
			if err := form.decode(body, m, &c); err != nil {
				t.Fatal(err)
			}
			assertMsgEqual(t, m, src)
			if kept[0] != 7 || kept[1] != 8 || kept[2] != 9 || overlaps(m.Ints, kept) {
				t.Fatalf("carving decode wrote into the Ints the struct held: kept %v, decoded %v", kept, m.Ints)
			}
			if cap(m.Ints) != len(m.Ints) || !overlaps(m.Ints, c[:cap(c)]) {
				t.Errorf("decoded Ints (len %d cap %d) were not carved from the chunk", len(m.Ints), cap(m.Ints))
			}

			// A frame without Ints detaches the old slice and carves nothing.
			none, _ := (&Msg{Kind: KindSync}).MarshalBinary()
			m.Ints, c = kept, nil
			if err := form.decode(none, m, &c); err != nil {
				t.Fatal(err)
			}
			if m.Ints != nil || cap(c) != 0 {
				t.Errorf("Int-less frame: Ints %v, chunk cap %d; want nil and nothing carved", m.Ints, cap(c))
			}
		})
	}
}
