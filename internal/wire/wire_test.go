package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleMsg() *Msg {
	return &Msg{
		Kind:    KindData,
		Stamp:   42,
		Obj:     1234,
		Mode:    ModeWrite,
		Ints:    []int64{-1, 0, 99},
		Payload: []byte("hello world"),
	}
}

func TestRoundTrip(t *testing.T) {
	m := sampleMsg()
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	if len(b) != m.EncodedSize() {
		t.Errorf("encoded size %d != EncodedSize() %d", len(b), m.EncodedSize())
	}
	var got Msg
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if !reflect.DeepEqual(&got, m) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, *m)
	}
}

func TestRoundTripEmptyFields(t *testing.T) {
	m := &Msg{Kind: KindSync, Stamp: -5}
	b, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	var got Msg
	if err := got.UnmarshalBinary(b); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if !reflect.DeepEqual(&got, m) {
		t.Errorf("round trip mismatch: got %+v want %+v", got, *m)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(kind uint8, src, dst int32, stamp int64, obj uint32, mode uint8, ints []int64, payload []byte) bool {
		k := Kind(kind%uint8(kindMax-1)) + 1
		m := &Msg{Kind: k, Src: src, Dst: dst, Stamp: stamp, Obj: obj, Mode: mode, Ints: ints, Payload: payload}
		b, err := m.MarshalBinary()
		if err != nil {
			return false
		}
		var got Msg
		if err := got.UnmarshalBinary(b); err != nil {
			return false
		}
		// Routing is not encoded: the decoder leaves the target's at zero.
		if got.Kind != m.Kind || got.Src != 0 || got.Dst != 0 ||
			got.Stamp != m.Stamp || got.Obj != m.Obj || got.Mode != m.Mode {
			return false
		}
		if len(got.Ints) != len(m.Ints) || len(got.Payload) != len(m.Payload) {
			return false
		}
		for i := range m.Ints {
			if got.Ints[i] != m.Ints[i] {
				return false
			}
		}
		return bytes.Equal(got.Payload, m.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	tests := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrShortBuffer},
		{"short header", make([]byte, 5), ErrShortBuffer},
		{"bad kind", func() []byte {
			b, _ := sampleMsg().MarshalBinary()
			b[0] = 0
			return b
		}(), ErrBadKind},
		{"truncated payload", func() []byte {
			b, _ := sampleMsg().MarshalBinary()
			return b[:len(b)-3]
		}(), ErrShortBuffer},
		{"trailing garbage", func() []byte {
			b, _ := sampleMsg().MarshalBinary()
			return append(b, 0xff)
		}(), ErrShortBuffer},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var m Msg
			if err := m.UnmarshalBinary(tt.buf); !errors.Is(err, tt.want) {
				t.Errorf("UnmarshalBinary = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestMarshalRejectsInvalidKind(t *testing.T) {
	m := &Msg{Kind: 0}
	if _, err := m.MarshalBinary(); !errors.Is(err, ErrBadKind) {
		t.Errorf("MarshalBinary = %v, want ErrBadKind", err)
	}
	m.Kind = kindMax
	if _, err := m.MarshalBinary(); !errors.Is(err, ErrBadKind) {
		t.Errorf("MarshalBinary = %v, want ErrBadKind", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []*Msg{
		sampleMsg(),
		{Kind: KindSync, Stamp: 7},
		{Kind: KindLockReq, Obj: 55, Mode: ModeRead},
	}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range msgs {
		var got Msg
		if err := ReadFrame(&buf, &got); err != nil {
			t.Fatalf("ReadFrame[%d]: %v", i, err)
		}
		if !reflect.DeepEqual(&got, want) {
			t.Errorf("frame[%d]: got %+v want %+v", i, got, *want)
		}
	}
	var m Msg
	if err := ReadFrame(&buf, &m); err != io.EOF {
		t.Errorf("ReadFrame on empty buffer = %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsHugeLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	var m Msg
	if err := ReadFrame(&buf, &m); !errors.Is(err, ErrTooLarge) {
		t.Errorf("ReadFrame = %v, want ErrTooLarge", err)
	}
}

func TestIsData(t *testing.T) {
	dataKinds := map[Kind]bool{
		KindData: true, KindObjReply: true, KindUpdate: true,
		KindSnapshot: true, KindCkpt: true,
	}
	for k := KindSync; k < kindMax; k++ {
		m := &Msg{Kind: k}
		if got := m.IsData(); got != dataKinds[k] {
			t.Errorf("IsData(%s) = %v, want %v", k, got, dataKinds[k])
		}
	}
}

func TestKindString(t *testing.T) {
	if got := KindLockGrant.String(); got != "LOCK_GRANT" {
		t.Errorf("String = %q", got)
	}
	if got := Kind(200).String(); !strings.Contains(got, "200") {
		t.Errorf("unknown kind String = %q", got)
	}
	// Every defined kind must be named: an unnamed kind means a new enum
	// entry skipped the kindNames table. The three values after
	// KindObjReply are retired kinds, blank in the enum.
	for k := KindSync; k < kindMax; k++ {
		retired := k > KindObjReply && k <= KindObjReply+3
		if named := !strings.Contains(k.String(), "Kind("); named == retired {
			t.Errorf("kind %d: named %v, retired %v", uint8(k), named, retired)
		}
	}
}

func TestQuorumKindsRoundTrip(t *testing.T) {
	msgs := []*Msg{
		{Kind: KindQRead, Stamp: 2},
		{Kind: KindQReadAck, Stamp: 2, Payload: []byte{0, 0, 0, 0}},
		{Kind: KindQWrite, Stamp: 7, Obj: 12, Ints: []int64{3, 9}},
		{Kind: KindQWriteAck, Stamp: 7},
		{Kind: KindCkpt, Stamp: 16, Obj: 0, Payload: []byte("snap")},
	}
	for _, m := range msgs {
		b, err := m.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: MarshalBinary: %v", m.Kind, err)
		}
		var got Msg
		if err := got.UnmarshalBinary(b); err != nil {
			t.Fatalf("%s: UnmarshalBinary: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(&got, m) {
			t.Errorf("%s round trip mismatch: got %+v want %+v", m.Kind, got, *m)
		}
	}
}

func TestClone(t *testing.T) {
	m := sampleMsg()
	c := m.Clone()
	if !reflect.DeepEqual(m, c) {
		t.Fatalf("clone differs: %+v vs %+v", m, c)
	}
	c.Payload[0] = 'X'
	c.Ints[0] = 12345
	if m.Payload[0] == 'X' || m.Ints[0] == 12345 {
		t.Error("Clone did not deep-copy slices")
	}
}

func TestFrameFuzzRobustness(t *testing.T) {
	// Random byte streams must never panic the frame reader.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		n := rng.Intn(64)
		junk := make([]byte, n)
		rng.Read(junk)
		var m Msg
		_ = ReadFrame(bytes.NewReader(junk), &m) // must not panic
	}
}
