package diff

import (
	"bytes"
	"testing"
)

func TestXORRoundTrip(t *testing.T) {
	cases := [][2][]byte{
		{[]byte("aaaaaaaa"), []byte("aaaaaaaa")},
		{[]byte("aaaaaaaa"), []byte("abaaacaa")},
		{[]byte{}, []byte{}},
		{[]byte("the quick brown fox"), []byte("the quack brown fix")},
		{bytes.Repeat([]byte{0}, 512), append(bytes.Repeat([]byte{0}, 500), bytes.Repeat([]byte{7}, 12)...)},
	}
	for _, c := range cases {
		delta, err := AppendXOR(nil, c[0], c[1])
		if err != nil {
			t.Fatalf("AppendXOR: %v", err)
		}
		got, err := ApplyXORTo(nil, c[0], delta)
		if err != nil {
			t.Fatalf("ApplyXORTo(nil): %v", err)
		}
		if !bytes.Equal(got, c[1]) {
			t.Fatalf("round trip: got %q want %q", got, c[1])
		}
	}
}

func TestXORLengthMismatch(t *testing.T) {
	if _, err := AppendXOR(nil, []byte("short"), []byte("longer")); err == nil {
		t.Fatal("AppendXOR accepted mismatched lengths")
	}
	delta, err := AppendXOR(nil, []byte("aaaa"), []byte("abca"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyXORTo(nil, []byte("aaaaaaaa"), delta); err == nil {
		t.Fatal("ApplyXORTo(nil) accepted a base of the wrong length")
	}
}

func TestXORWrongBaseDetectedByFingerprint(t *testing.T) {
	base := []byte("aaaaaaaa")
	next := []byte("abaaacaa")
	other := []byte("zzzzzzzz")
	if Fingerprint(base) == Fingerprint(other) {
		t.Fatal("test bases collide; pick different ones")
	}
	delta, err := AppendXOR(nil, base, next)
	if err != nil {
		t.Fatal(err)
	}
	// Same length, wrong content: ApplyXORTo succeeds mechanically but yields
	// garbage — which is exactly why the protocol checks the fingerprint
	// before applying.
	got, err := ApplyXORTo(nil, other, delta)
	if err != nil {
		t.Fatalf("ApplyXORTo(nil): %v", err)
	}
	if bytes.Equal(got, next) {
		t.Fatal("wrong base happened to decode correctly; fingerprint gate untestable")
	}
}

func TestXORBaseUnmodified(t *testing.T) {
	base := []byte("aaaaaaaa")
	orig := append([]byte(nil), base...)
	delta, err := AppendXOR(nil, base, []byte("abaaacaa"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyXORTo(nil, base, delta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(base, orig) {
		t.Fatal("ApplyXORTo(nil) modified its base")
	}
}

// FuzzDeltaRoundTrip: for any (base, next) of equal length the encode/apply
// pair must reproduce next exactly; unequal lengths must be refused.
func FuzzDeltaRoundTrip(f *testing.F) {
	f.Add([]byte("aaaaaaaa"), []byte("abaaacaa"))
	f.Add([]byte{}, []byte{})
	f.Add(bytes.Repeat([]byte{0}, 64), bytes.Repeat([]byte{1}, 64))
	f.Fuzz(func(t *testing.T, base, next []byte) {
		delta, err := AppendXOR(nil, base, next)
		if len(base) != len(next) {
			if err == nil {
				t.Fatal("AppendXOR accepted mismatched lengths")
			}
			return
		}
		if err != nil {
			t.Fatalf("AppendXOR: %v", err)
		}
		if app, err := AppendXOR([]byte{0xAB}, base, next); err != nil || !bytes.Equal(app[1:], delta) {
			t.Fatalf("AppendXOR = %x, %v; want 0xAB + %x", app, err, delta)
		}
		got, err := ApplyXORTo(nil, base, delta)
		if err != nil {
			t.Fatalf("ApplyXORTo(nil) rejected its own encoding: %v", err)
		}
		if !bytes.Equal(got, next) {
			t.Fatalf("round trip: got %x want %x", got, next)
		}
	})
}

// FuzzDeltaApplyAgainstWrongBase: decoding arbitrary bytes against an
// arbitrary base must never panic or corrupt the base, and a wrong-length
// base must be rejected outright. Content divergence at equal length is the
// protocol layer's job to catch (it fingerprints the base before applying);
// the codec's contract is only that rejection is clean and the base stays
// untouched either way.
func FuzzDeltaApplyAgainstWrongBase(f *testing.F) {
	seed, _ := AppendXOR(nil, []byte("aaaaaaaa"), []byte("abaaacaa"))
	f.Add(seed, []byte("aaaaaaaa"))
	f.Add(seed, []byte("zzzz"))
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, delta, base []byte) {
		orig := append([]byte(nil), base...)
		out, err := ApplyXORTo(nil, base, delta)
		if !bytes.Equal(base, orig) {
			t.Fatal("ApplyXORTo(nil) modified its base")
		}
		// The same into a destination carved from a larger block, as the
		// store's arena hands them out: same verdict, same state, written in
		// place, and nothing outside the destination touched.
		block := bytes.Repeat([]byte{0xA5}, len(base)+16)
		dst := block[8 : 8+len(base) : 8+len(base)]
		into, intoErr := ApplyXORTo(dst, base, delta)
		if (err == nil) != (intoErr == nil) || (err != nil && err.Error() != intoErr.Error()) {
			t.Fatalf("ApplyXORTo(dst) err = %v, ApplyXORTo(nil) err = %v", intoErr, err)
		}
		if !bytes.Equal(base, orig) {
			t.Fatal("ApplyXORTo modified its base")
		}
		if !bytes.Equal(block[:8], bytes.Repeat([]byte{0xA5}, 8)) || !bytes.Equal(block[8+len(base):], bytes.Repeat([]byte{0xA5}, 8)) {
			t.Fatal("ApplyXORTo wrote outside its destination")
		}
		if err != nil {
			return
		}
		if len(out) != len(base) {
			t.Fatalf("ApplyXORTo(nil) produced %d bytes from a %d-byte base", len(out), len(base))
		}
		if !bytes.Equal(into, out) {
			t.Fatalf("ApplyXORTo(dst) = %x, ApplyXORTo(nil) = %x", into, out)
		}
		if len(base) > 0 && &into[0] != &dst[0] {
			t.Fatal("ApplyXORTo reallocated a destination that fits")
		}
	})
}
