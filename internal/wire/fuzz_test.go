package wire

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzUnmarshalBinary: arbitrary bytes must never panic the codec, any
// input it accepts must re-encode to an equivalent message, and the carving
// decode must accept and refuse exactly what it does, field for field.
func FuzzUnmarshalBinary(f *testing.F) {
	if b, err := sampleMsg().MarshalBinary(); err == nil {
		f.Add(b)
	}
	for _, m := range joinKindMsgs() {
		if b, err := m.MarshalBinary(); err == nil {
			f.Add(b)
		}
	}
	f.Add([]byte{})
	f.Add(make([]byte, encodedHeaderSize))
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Msg
		err := m.UnmarshalBinary(data)
		checkCarvedMatches(t, &m, err, func(m *Msg, c *IntsChunk) error { return m.unmarshal(data, c) })
		if err == nil {
			checkReencodes(t, &m)
		}
	})
}

// checkCarvedMatches decodes the same input again through a chunk, into a
// struct whose Ints another holder keeps, and demands what the plain decode
// gave — the same error, or the same message field for field — with the
// kept Ints untouched and the decoded ones capacity-clipped.
func checkCarvedMatches(t *testing.T, want *Msg, wantErr error, decode func(*Msg, *IntsChunk) error) {
	t.Helper()
	kept := append(make([]int64, 0, 64), -1, -2)
	var c IntsChunk
	got := &Msg{Ints: kept}
	err := decode(got, &c)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("carving decode: error %v, plain decode: %v", err, wantErr)
	}
	if kept[0] != -1 || kept[1] != -2 {
		t.Fatalf("carving decode wrote into the Ints the struct held: %v", kept)
	}
	if err != nil {
		return
	}
	assertMsgEqual(t, got, want)
	if cap(got.Ints) != len(got.Ints) || overlaps(got.Ints, kept) {
		t.Fatalf("carved Ints have len %d cap %d, and share the held Ints' memory: %v",
			len(got.Ints), cap(got.Ints), overlaps(got.Ints, kept))
	}
}

// checkReencodes demands that an accepted message survives a second trip
// through the codec in each of the six fields it encodes, at exactly the
// size EncodedSize states.
// (The input itself may be longer: the decoder accepts padded varints, the
// encoder never writes them.)
func checkReencodes(t *testing.T, m *Msg) {
	t.Helper()
	re, err := m.MarshalBinary()
	if err != nil {
		t.Fatalf("accepted message failed to re-marshal: %v", err)
	}
	if len(re) != m.EncodedSize() {
		t.Fatalf("re-marshaled to %d bytes, EncodedSize says %d: %v", len(re), m.EncodedSize(), m)
	}
	var m2 Msg
	if err := m2.UnmarshalBinary(re); err != nil {
		t.Fatalf("re-marshaled message failed to parse: %v", err)
	}
	assertMsgEqual(t, &m2, m)
}

// FuzzReadFrame: arbitrary streams must never panic the frame reader, a
// frame it accepts must re-encode like any other message, and
// ReadFrameCarved must read the same. The seed
// corpus includes truncated frames — a crashing or partitioned peer
// cuts the TCP stream at arbitrary byte boundaries, so the reader must fail
// cleanly mid-length-prefix, mid-header, and mid-payload.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	_ = WriteFrame(&buf, sampleMsg())
	full := buf.Bytes()
	f.Add(full)
	for _, m := range joinKindMsgs() {
		var jb bytes.Buffer
		if err := WriteFrame(&jb, m); err == nil {
			f.Add(jb.Bytes())
		}
	}
	f.Add([]byte{0, 0, 0, 1, 9})
	for _, cut := range []int{1, 3, 5, len(full) / 2, len(full) - 1} {
		if cut > 0 && cut < len(full) {
			f.Add(full[:cut])
		}
	}
	// A length prefix promising far more than the stream delivers.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Msg
		err := ReadFrame(bytes.NewReader(data), &m)
		checkCarvedMatches(t, &m, err, func(m *Msg, c *IntsChunk) error {
			return ReadFrameCarved(bytes.NewReader(data), m, c)
		})
		if err == nil {
			checkReencodes(t, &m)
		}
	})
}

// joinKindMsgs seeds the corpus with the rejoin vocabulary (join request
// and ack, store snapshot) in the shapes the protocols actually send.
func joinKindMsgs() []*Msg {
	return []*Msg{
		{Kind: KindJoinReq, Stamp: 1},
		{Kind: KindJoinAck, Stamp: 14, Ints: []int64{3, 0, 0, 1, 2}},
		{Kind: KindJoinAck, Stamp: 1, Ints: []int64{0, 3}, Payload: []byte{0, 0, 0, 0}},
		{Kind: KindSnapshot, Stamp: 12, Payload: []byte{0, 0, 0, 0, 0, 0, 0, 12, 0, 0, 0, 0}},
	}
}

// corpusMsgs are the seeds checked in under testdata/fuzz for both targets
// (go test replays that directory without -fuzz): the two smallest frames
// there are, every varint width boundary as stamp and as an int, Obj at
// full width, and the piggybacked final flush — DATA carrying a DONE.
func corpusMsgs() map[string]*Msg {
	ms := map[string]*Msg{
		"min-sync":     {Kind: KindSync},
		"min-lock-req": {Kind: KindLockReq, Mode: ModeWrite, Obj: 9},
		"data-done": {
			Kind: KindData, Mode: ModeDonePiggyback | ModeDoneWon | ModeDeltaPayload,
			Stamp: 41, Ints: []int64{2, 17, 33, 1, 90, 4}, Payload: []byte{1, 8, 0x81, 3},
		},
		"obj-max": {Kind: KindObjReq, Obj: math.MaxUint32},
	}
	for _, v := range boundaries {
		ms[fmt.Sprintf("boundary-%d", v)] = &Msg{
			Kind: KindUpdate, Stamp: v, Ints: []int64{v, -v}, Payload: []byte{byte(v)},
		}
	}
	return ms
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz from corpusMsgs")

// TestSeedCorpusIsCurrent keeps the checked-in seeds equal to what this
// codec writes for corpusMsgs, so a layout change cannot leave the fuzzers
// starting from frames of the old one. Regenerate with
// go test ./internal/wire -run TestSeedCorpusIsCurrent -update-corpus.
func TestSeedCorpusIsCurrent(t *testing.T) {
	for name, m := range corpusMsgs() {
		body, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var frame bytes.Buffer
		if err := WriteFrame(&frame, m); err != nil {
			t.Fatal(err)
		}
		for target, seed := range map[string][]byte{
			"FuzzUnmarshalBinary": body,
			"FuzzReadFrame":       frame.Bytes(),
		} {
			path := filepath.Join("testdata", "fuzz", target, name)
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			if *updateCorpus {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("seed missing (run with -update-corpus): %v", err)
			} else if string(got) != want {
				t.Errorf("%s is not what the codec writes for %v (run with -update-corpus)", path, m)
			}
		}
	}
}
