package diff

import (
	"bytes"
	"testing"
)

// FuzzDecode: arbitrary bytes must never panic the decoder, and accepted
// diffs must re-encode to an equivalent form.
func FuzzDecode(f *testing.F) {
	f.Add(AppendEncode(nil, Compute([]byte("aaaa"), []byte("abca"))))
	f.Add(AppendEncode(nil, Compute([]byte("short"), []byte("a longer state"))))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data)
		if err != nil {
			return
		}
		enc := AppendEncode(nil, d)
		if EncodedSize(d) != len(enc) {
			t.Fatalf("EncodedSize = %d, len(AppendEncode) = %d", EncodedSize(d), len(enc))
		}
		var aliased Diff
		if err := DecodeAliased(&aliased, data); err != nil || !bytes.Equal(AppendEncode(nil, aliased), enc) {
			t.Fatalf("DecodeAliased disagrees with Decode: %+v, %v", aliased, err)
		}
		d2, err := Decode(enc)
		if err != nil {
			t.Fatalf("accepted diff failed to round trip: %v", err)
		}
		if d.Replace != d2.Replace || d.Len != d2.Len || len(d.Runs) != len(d2.Runs) {
			t.Fatalf("round trip changed diff: %+v vs %+v", d, d2)
		}
	})
}

// FuzzApply: applying any decoded diff to any base must never panic; when
// it succeeds the result length matches the diff's declared length.
func FuzzApply(f *testing.F) {
	f.Add(AppendEncode(nil, Compute([]byte("aaaa"), []byte("abca"))), []byte("aaaa"))
	f.Fuzz(func(t *testing.T, enc, base []byte) {
		d, err := Decode(enc)
		if err != nil {
			return
		}
		out, err := Apply(base, d)
		if err != nil {
			return
		}
		if len(out) != d.Len {
			t.Fatalf("Apply produced %d bytes, diff declares %d", len(out), d.Len)
		}
		if bytes.Equal(base, out) && !d.Empty() && !d.Replace {
			// Possible (runs rewriting identical bytes); just exercise.
			_ = out
		}
	})
}
