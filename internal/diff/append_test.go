package diff

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomDiffs yields diffs of every shape the codec carries: run diffs
// between equal-length states (sparse and dense), whole-state replacements
// (length changes, including to and from empty), and the empty diff.
func randomDiffs(rng *rand.Rand, count int) []Diff {
	out := []Diff{{}, Compute(nil, nil), Compute([]byte("x"), nil), Compute(nil, []byte("x"))}
	for len(out) < count {
		old := make([]byte, rng.Intn(300))
		rng.Read(old)
		next := bytes.Clone(old)
		switch rng.Intn(3) {
		case 0: // sparse edits
			for k := rng.Intn(6); k > 0 && len(next) > 0; k-- {
				next[rng.Intn(len(next))] ^= byte(1 + rng.Intn(255))
			}
		case 1: // dense rewrite
			rng.Read(next)
		default: // length change: a replacement
			next = append(next, byte(rng.Intn(256)))
		}
		out = append(out, Compute(old, next))
	}
	return out
}

// TestEncodedSizeIsExact: EncodedSize(d) == len(AppendEncode(nil, d)), and the append
// form writes the same bytes after whatever dst already held.
func TestEncodedSizeIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prefix := []byte("prefix")
	for _, d := range randomDiffs(rng, 500) {
		enc := AppendEncode(nil, d)
		if got := EncodedSize(d); got != len(enc) {
			t.Fatalf("EncodedSize = %d, len(AppendEncode) = %d for %+v", got, len(enc), d)
		}
		if got := AppendEncode(bytes.Clone(prefix), d); !bytes.Equal(got, append(bytes.Clone(prefix), enc...)) {
			t.Fatalf("AppendEncode after a prefix diverges from AppendEncode onto nil for %+v", d)
		}
	}
}

// TestDecodeAliasedMatchesDecode: the aliased decode yields the same diff
// by value, recycles one Diff across inputs, and really aliases — which is
// why its result dies with the buffer.
func TestDecodeAliasedMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var scratch Diff
	for _, d := range randomDiffs(rng, 500) {
		enc := AppendEncode(nil, d)
		owned, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if err := DecodeAliased(&scratch, enc); err != nil {
			t.Fatalf("DecodeAliased: %v", err)
		}
		if !bytes.Equal(AppendEncode(nil, scratch), enc) || scratch.Replace != owned.Replace || scratch.Len != owned.Len {
			t.Fatalf("DecodeAliased = %+v, Decode = %+v", scratch, owned)
		}
		orig := bytes.Clone(enc)
		for i := range enc {
			enc[i] = 0xEE
		}
		if !bytes.Equal(AppendEncode(nil, owned), orig) {
			t.Fatal("Decode's result aliases its input")
		}
		for _, r := range scratch.Runs {
			if !bytes.Equal(r.Data, bytes.Repeat([]byte{0xEE}, len(r.Data))) {
				t.Fatal("DecodeAliased copied run data instead of aliasing it")
			}
		}
	}
}

// TestAppendXORMatchesEncodeXOR: AppendXOR writes after dst's content the
// bytes it writes onto a nil dst, and leaves dst alone when the lengths
// differ.
func TestAppendXORMatchesEncodeXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prefix := []byte("prefix")
	for i := 0; i < 500; i++ {
		base := make([]byte, rng.Intn(200))
		rng.Read(base)
		next := bytes.Clone(base)
		for k := rng.Intn(8); k > 0 && len(next) > 0; k-- {
			next[rng.Intn(len(next))] ^= byte(1 + rng.Intn(255))
		}
		want, err := AppendXOR(nil, base, next)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendXOR(bytes.Clone(prefix), base, next)
		if err != nil || !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
			t.Fatalf("AppendXOR = %x, %v; want prefix + %x", got, err, want)
		}
	}
	if got, err := AppendXOR(bytes.Clone(prefix), []byte("ab"), []byte("abc")); err == nil || !bytes.Equal(got, prefix) {
		t.Fatalf("AppendXOR over mismatched lengths = %q, %v; want dst unchanged and an error", got, err)
	}
}
