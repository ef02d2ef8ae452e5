package diff

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestComputeApplyBasic(t *testing.T) {
	tests := []struct {
		name     string
		old, new string
	}{
		{"identical", "hello", "hello"},
		{"single byte", "hello", "hallo"},
		{"prefix", "hello", "Jello"},
		{"suffix", "hello", "hellO"},
		{"all changed", "aaaa", "bbbb"},
		{"empty", "", ""},
		{"sparse", "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", "baaaaaaaaaaaaaaaaaaaaaaaaaaaab"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d := Compute([]byte(tt.old), []byte(tt.new))
			got, err := Apply([]byte(tt.old), d)
			if err != nil {
				t.Fatalf("Apply: %v", err)
			}
			if string(got) != tt.new {
				t.Errorf("Apply = %q, want %q", got, tt.new)
			}
			if tt.old == tt.new && !d.Empty() {
				t.Errorf("diff of identical states not empty: %+v", d)
			}
		})
	}
}

func TestComputeLengthChangeReplaces(t *testing.T) {
	d := Compute([]byte("short"), []byte("much longer state"))
	if !d.Replace {
		t.Fatalf("expected replacement diff, got %+v", d)
	}
	got, err := Apply([]byte("anything at all"), d)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if string(got) != "much longer state" {
		t.Errorf("Apply = %q", got)
	}
}

func TestApplyErrors(t *testing.T) {
	d := Compute([]byte("aaaa"), []byte("abba"))
	if _, err := Apply([]byte("aaa"), d); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("short base: %v, want ErrLengthMismatch", err)
	}
	bad := Diff{Len: 4, Runs: []Run{{Off: 3, Data: []byte("xx")}}}
	if _, err := Apply([]byte("aaaa"), bad); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("out of bounds: %v, want ErrOutOfBounds", err)
	}
}

func TestComputeRoundTripQuick(t *testing.T) {
	f := func(old []byte, edits []struct {
		Off  uint16
		Data []byte
	}) bool {
		next := make([]byte, len(old))
		copy(next, old)
		for _, e := range edits {
			if len(next) == 0 {
				break
			}
			off := int(e.Off) % len(next)
			for i, b := range e.Data {
				if off+i >= len(next) {
					break
				}
				next[off+i] = b
			}
		}
		d := Compute(old, next)
		got, err := Apply(old, d)
		return err == nil && bytes.Equal(got, next)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMergeEquivalentToSequentialApply(t *testing.T) {
	f := func(base []byte, seed int64) bool {
		if len(base) == 0 {
			base = []byte{0}
		}
		rng := rand.New(rand.NewSource(seed))
		mid := mutate(rng, base)
		fin := mutate(rng, mid)
		d1 := Compute(base, mid)
		d2 := Compute(mid, fin)
		merged, err := Merge(d1, d2)
		if err != nil {
			return false
		}
		got, err := Apply(base, merged)
		return err == nil && bytes.Equal(got, fin)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func mutate(rng *rand.Rand, s []byte) []byte {
	out := make([]byte, len(s))
	copy(out, s)
	for k := 0; k < rng.Intn(4)+1; k++ {
		if len(out) == 0 {
			break
		}
		off := rng.Intn(len(out))
		n := rng.Intn(len(out)-off) + 1
		for i := 0; i < n; i++ {
			out[off+i] = byte(rng.Intn(256))
		}
	}
	return out
}

func TestMergeAssociativeQuick(t *testing.T) {
	// (d1+d2)+d3 and d1+(d2+d3) must produce the same final state.
	f := func(base []byte, seed int64) bool {
		if len(base) == 0 {
			base = []byte{1, 2, 3}
		}
		rng := rand.New(rand.NewSource(seed))
		s1 := mutate(rng, base)
		s2 := mutate(rng, s1)
		s3 := mutate(rng, s2)
		d1, d2, d3 := Compute(base, s1), Compute(s1, s2), Compute(s2, s3)
		left12, err := Merge(d1, d2)
		if err != nil {
			return false
		}
		left, err := Merge(left12, d3)
		if err != nil {
			return false
		}
		right23, err := Merge(d2, d3)
		if err != nil {
			return false
		}
		right, err := Merge(d1, right23)
		if err != nil {
			return false
		}
		a, errA := Apply(base, left)
		b, errB := Apply(base, right)
		return errA == nil && errB == nil && bytes.Equal(a, b) && bytes.Equal(a, s3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeWithReplacement(t *testing.T) {
	base := []byte("0123456789")
	repl := Compute(base, []byte("abc")) // length change => replacement
	patch := Compute([]byte("abc"), []byte("aXc"))
	m, err := Merge(repl, patch)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	got, err := Apply(base, m)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if string(got) != "aXc" {
		t.Errorf("got %q", got)
	}

	// Replacement as the second diff wins outright.
	m2, err := Merge(patch, repl)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	got2, err := Apply([]byte("zzz"), m2)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if string(got2) != "abc" {
		t.Errorf("got %q", got2)
	}
}

func TestMergeLengthMismatch(t *testing.T) {
	d1 := Diff{Len: 4, Runs: []Run{{Off: 0, Data: []byte("x")}}}
	d2 := Diff{Len: 5, Runs: []Run{{Off: 0, Data: []byte("y")}}}
	if _, err := Merge(d1, d2); !errors.Is(err, ErrLengthMismatch) {
		t.Errorf("Merge = %v, want ErrLengthMismatch", err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(old, new []byte) bool {
		if len(old) != len(new) {
			// exercise both same-length and replacement paths
			d := Compute(old, new)
			dec, err := Decode(AppendEncode(nil, d))
			if err != nil {
				return false
			}
			return reflect.DeepEqual(normalize(d), normalize(dec))
		}
		d := Compute(old, new)
		dec, err := Decode(AppendEncode(nil, d))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalize(d), normalize(dec))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// normalize maps nil and empty run slices to a canonical form for DeepEqual.
func normalize(d Diff) Diff {
	if len(d.Runs) == 0 {
		d.Runs = nil
	}
	return d
}

func TestDecodeCorrupt(t *testing.T) {
	d := Compute([]byte("aaaaaaaa"), []byte("abcdaaXa"))
	enc := AppendEncode(nil, d)
	cases := map[string][]byte{
		"empty":     {},
		"bad flags": append([]byte{7}, enc[1:]...),
		"truncated": enc[:len(enc)-2],
		"trailing":  append(append([]byte{}, enc...), 0xAB),
	}
	for name, buf := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Decode(buf); err == nil {
				t.Error("Decode accepted corrupt input")
			}
		})
	}
}

func TestDecodeFuzzNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		buf := make([]byte, rng.Intn(64))
		rng.Read(buf)
		_, _ = Decode(buf) // must not panic
	}
}

func TestRunsSortedAndMinimal(t *testing.T) {
	old := bytes.Repeat([]byte{0}, 100)
	new := bytes.Repeat([]byte{0}, 100)
	new[10] = 1
	new[50] = 2
	new[90] = 3
	d := Compute(old, new)
	if len(d.Runs) != 3 {
		t.Fatalf("got %d runs, want 3: %+v", len(d.Runs), d.Runs)
	}
	for i := 1; i < len(d.Runs); i++ {
		prev := d.Runs[i-1]
		if d.Runs[i].Off <= prev.Off+len(prev.Data) {
			t.Errorf("runs overlap or unsorted: %+v", d.Runs)
		}
	}
}

func TestCoalescing(t *testing.T) {
	// Two changes separated by fewer than coalesceGap identical bytes
	// should produce one run.
	old := bytes.Repeat([]byte{0}, 20)
	new := bytes.Repeat([]byte{0}, 20)
	new[5] = 1
	new[5+coalesceGap-1] = 1
	d := Compute(old, new)
	if len(d.Runs) != 1 {
		t.Errorf("got %d runs, want 1 (coalesced): %+v", len(d.Runs), d.Runs)
	}
	got, err := Apply(old, d)
	if err != nil || !bytes.Equal(got, new) {
		t.Errorf("Apply after coalescing: %v, %v", got, err)
	}
}
