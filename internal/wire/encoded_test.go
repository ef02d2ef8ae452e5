package wire

import (
	"bytes"
	"testing"
)

func sampleFanoutMsg() *Msg {
	return &Msg{
		Kind:    KindData,
		Stamp:   42,
		Obj:     9,
		Mode:    ModeSyncPiggyback,
		Ints:    []int64{1, -2, 3},
		Payload: []byte("diff bytes"),
	}
}

// The frame produced by EncodeFrame must be byte-identical to what
// WriteFrame puts on the wire, so a shared encoding is indistinguishable
// from a per-peer encode to any receiver.
func TestEncodeFrameMatchesWriteFrame(t *testing.T) {
	m := sampleFanoutMsg()
	var legacy bytes.Buffer
	if err := WriteFrame(&legacy, m); err != nil {
		t.Fatal(err)
	}
	e, err := EncodeFrame(m)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Release()
	if !bytes.Equal(e.Frame(), legacy.Bytes()) {
		t.Fatalf("EncodeFrame bytes differ from WriteFrame:\n  enc: %x\n  leg: %x", e.Frame(), legacy.Bytes())
	}
	if e.Len() != legacy.Len() {
		t.Fatalf("Len = %d, want %d", e.Len(), legacy.Len())
	}
	if e.EncodedSize() != m.EncodedSize() {
		t.Fatalf("EncodedSize = %d, want %d", e.EncodedSize(), m.EncodedSize())
	}
	if e.Kind() != m.Kind || e.Stamp() != m.Stamp {
		t.Fatalf("header peek = (%v, %d), want (%v, %d)", e.Kind(), e.Stamp(), m.Kind, m.Stamp)
	}
}

// DecodeInto must not alias the shared frame bytes: the frame is recycled
// (and scribbled over) after Release while receivers retain the Msg.
func TestDecodeIntoDoesNotAliasFrame(t *testing.T) {
	m := sampleFanoutMsg()
	e, err := EncodeFrame(m)
	if err != nil {
		t.Fatal(err)
	}
	var got Msg
	if err := e.DecodeInto(&got); err != nil {
		t.Fatal(err)
	}
	frame := e.Frame()
	for i := range frame {
		frame[i] = 0xFF
	}
	e.Release()
	assertMsgEqual(t, &got, m)
}

// A pooled Msg that previously held larger slices must decode a new frame
// without leaking stale Ints/Payload contents, and recycling must detach
// nothing the next user could observe.
func TestMsgPoolReuse(t *testing.T) {
	first := GetMsg()
	e, err := EncodeFrame(sampleFanoutMsg())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.DecodeInto(first); err != nil {
		t.Fatal(err)
	}
	e.Release()
	PutMsg(first)

	small := &Msg{Kind: KindSync, Stamp: 1}
	e2, err := EncodeFrame(small)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Release()
	got := GetMsg()
	if err := e2.DecodeInto(got); err != nil {
		t.Fatal(err)
	}
	assertMsgEqual(t, got, small)
	PutMsg(got)
	PutMsg(nil) // must be a no-op
}

// assertMsgEqual compares the six fields the encoding carries; Src and Dst
// are the link's, not the frame's.
func assertMsgEqual(t *testing.T, got, want *Msg) {
	t.Helper()
	if got.Kind != want.Kind || got.Stamp != want.Stamp || got.Obj != want.Obj || got.Mode != want.Mode {
		t.Fatalf("header mismatch:\n  got  %v\n  want %v", got, want)
	}
	if len(got.Ints) != len(want.Ints) {
		t.Fatalf("Ints len = %d, want %d", len(got.Ints), len(want.Ints))
	}
	for i := range want.Ints {
		if got.Ints[i] != want.Ints[i] {
			t.Fatalf("Ints[%d] = %d, want %d", i, got.Ints[i], want.Ints[i])
		}
	}
	if !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("Payload = %q, want %q", got.Payload, want.Payload)
	}
}

// EncodeCalls counts encodes: encoding a frame once must bump it exactly
// once regardless of how many destinations later share the frame, and
// sharing it is read-only — 16 receivers' decodes leave every byte as
// EncodeFrame wrote it.
func TestEncodeCallsCounter(t *testing.T) {
	m := sampleFanoutMsg()
	before := EncodeCalls()
	e, err := EncodeFrame(m)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Release()
	frame := bytes.Clone(e.Frame())
	for i := 0; i < 16; i++ {
		var got Msg
		if err := e.DecodeInto(&got); err != nil {
			t.Fatal(err)
		}
		assertMsgEqual(t, &got, m)
	}
	if n := EncodeCalls() - before; n != 1 {
		t.Fatalf("EncodeCalls after one EncodeFrame + 16 decodes = %d, want 1", n)
	}
	if !bytes.Equal(e.Frame(), frame) {
		t.Fatalf("16 decodes changed the shared frame:\n  before %x\n  after  %x", frame, e.Frame())
	}
}
