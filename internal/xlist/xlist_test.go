package xlist

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sdso/internal/diff"
	"sdso/internal/store"
)

func TestListSetAndDue(t *testing.T) {
	l := NewList()
	l.Set(3, 10)
	l.Set(1, 5)
	l.Set(2, 10)
	if l.Len() != 3 {
		t.Fatalf("Len = %d", l.Len())
	}

	due := l.Due(4)
	if len(due) != 0 {
		t.Errorf("Due(4) = %v, want empty", due)
	}
	due = l.Due(10)
	want := []Entry{{5, 1}, {10, 2}, {10, 3}}
	if len(due) != len(want) {
		t.Fatalf("Due(10) = %v, want %v", due, want)
	}
	for i := range want {
		if due[i] != want[i] {
			t.Errorf("Due[%d] = %v, want %v", i, due[i], want[i])
		}
	}
}

func TestListReschedule(t *testing.T) {
	l := NewList()
	l.Set(1, 5)
	l.Set(1, 20) // reschedule, not duplicate
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
	if tt, ok := l.Time(1); !ok || tt != 20 {
		t.Errorf("Time(1) = %d,%v", tt, ok)
	}
	if due := l.Due(math.MaxInt64); len(due) != 1 || due[0].Time != 20 {
		t.Errorf("Due = %+v", due)
	}
}

func TestListRemove(t *testing.T) {
	l := NewList()
	l.Set(1, 5)
	l.Set(2, 3)
	l.Remove(1)
	l.Remove(99) // no-op
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
	if _, ok := l.Time(1); ok {
		t.Error("removed entry still present")
	}
	if due := l.Due(math.MaxInt64); len(due) != 1 || due[0].Proc != 2 {
		t.Errorf("Due = %+v", due)
	}
}

func TestListOrderedEarliestFirst(t *testing.T) {
	// Property: Due is sorted by (time, proc) regardless of the
	// insertion/reschedule sequence.
	f := func(ops []struct {
		Proc uint8
		Time uint16
	}) bool {
		l := NewList()
		for _, op := range ops {
			l.Set(int(op.Proc), int64(op.Time))
		}
		es := l.Due(math.MaxInt64)
		for i := 1; i < len(es); i++ {
			if es[i-1].Time > es[i].Time ||
				(es[i-1].Time == es[i].Time && es[i-1].Proc >= es[i].Proc) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestListString(t *testing.T) {
	l := NewList()
	l.Set(2, 7)
	l.Set(0, 3)
	if got, want := l.String(), "(3,0) (7,2) "; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

// only is the AddAll skip set that leaves proc alone of n processes.
func only(n, proc int) map[int]bool {
	skip := make(map[int]bool, n)
	for q := 0; q < n; q++ {
		skip[q] = q != proc
	}
	return skip
}

// addFor buffers a write for proc alone.
func addFor(b *SlottedBuffer, proc int, obj store.ID, version int64, d diff.Diff) error {
	return b.AddAll(obj, version, d, only(b.n, proc))
}

func mkDiff(t *testing.T, old, new string) diff.Diff {
	t.Helper()
	return diff.Compute([]byte(old), []byte(new))
}

func TestSlottedBufferBasics(t *testing.T) {
	b := NewSlottedBuffer(0, 3, true)
	d := mkDiff(t, "aaaa", "abba")
	if err := addFor(b, 1, 7, 1, d); err != nil {
		t.Fatalf("addFor: %v", err)
	}
	if err := addFor(b, 0, 7, 1, d); err != nil { // self: silently ignored
		t.Fatalf("addFor self: %v", err)
	}
	if b.Pending(0) != 0 {
		t.Error("self slot should stay empty")
	}
	if b.Pending(1) != 1 || b.Pending(2) != 0 {
		t.Errorf("Pending = %d,%d", b.Pending(1), b.Pending(2))
	}

	out := b.Flush(1)
	if len(out) != 1 || out[0].Obj != 7 || out[0].Version != 1 {
		t.Fatalf("Flush = %+v", out)
	}
	if b.Pending(1) != 0 {
		t.Error("Flush did not clear slot")
	}
}

func TestSlottedBufferMerges(t *testing.T) {
	b := NewSlottedBuffer(0, 2, true)
	base := []byte("aaaaaaaa")
	mid := []byte("abaaaaaa")
	fin := []byte("abaaaaba")
	if err := addFor(b, 1, 3, 1, diff.Compute(base, mid)); err != nil {
		t.Fatal(err)
	}
	if err := addFor(b, 1, 3, 2, diff.Compute(mid, fin)); err != nil {
		t.Fatal(err)
	}
	if got := b.Pending(1); got != 1 {
		t.Fatalf("merged Pending = %d, want 1", got)
	}
	out := b.Flush(1)
	applied, err := diff.Apply(base, out[0].D)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !bytes.Equal(applied, fin) {
		t.Errorf("merged diff produced %q, want %q", applied, fin)
	}
	if out[0].Version != 2 {
		t.Errorf("merged version = %d, want 2", out[0].Version)
	}
}

func TestSlottedBufferUnmergedKeepsAll(t *testing.T) {
	b := NewSlottedBuffer(0, 2, false)
	base := []byte("aaaaaaaa")
	mid := []byte("abaaaaaa")
	fin := []byte("abaaaaba")
	addFor(b, 1, 3, 1, diff.Compute(base, mid))
	addFor(b, 1, 3, 2, diff.Compute(mid, fin))
	if got := b.Pending(1); got != 2 {
		t.Fatalf("unmerged Pending = %d, want 2", got)
	}
	out := b.Flush(1)
	state := base
	for _, od := range out {
		var err error
		state, err = diff.Apply(state, od.D)
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	if !bytes.Equal(state, fin) {
		t.Errorf("sequential apply produced %q, want %q", state, fin)
	}
}

func TestSlottedBufferFlushOrdering(t *testing.T) {
	b := NewSlottedBuffer(1, 3, true)
	d := mkDiff(t, "xx", "xy")
	for _, obj := range []store.ID{9, 2, 5} {
		if err := addFor(b, 0, obj, 1, d); err != nil {
			t.Fatal(err)
		}
	}
	out := b.Flush(0)
	if len(out) != 3 || out[0].Obj != 2 || out[1].Obj != 5 || out[2].Obj != 9 {
		t.Errorf("Flush order = %+v", out)
	}
}

func TestSlottedBufferDrop(t *testing.T) {
	b := NewSlottedBuffer(0, 2, true)
	addFor(b, 1, 1, 1, mkDiff(t, "ab", "cd"))
	b.Drop(1)
	if b.Pending(1) != 0 {
		t.Error("Drop did not clear slot")
	}
	if out := b.Flush(1); out != nil {
		t.Errorf("Flush after Drop = %v", out)
	}
}

func TestBufferedMergeEquivalentToEager(t *testing.T) {
	// Property: a receiver applying the merged/flushed diffs sees the same
	// final state as one receiving every update eagerly.
	f := func(seed int64, merge bool) bool {
		rng := rand.New(rand.NewSource(seed))
		const objLen = 12
		base := make([]byte, objLen)
		rng.Read(base)

		buf := NewSlottedBuffer(0, 2, merge)
		eager := append([]byte(nil), base...)
		cur := append([]byte(nil), base...)
		for i := 0; i < 8; i++ {
			next := make([]byte, objLen)
			copy(next, cur)
			for k := 0; k < rng.Intn(3)+1; k++ {
				next[rng.Intn(objLen)] = byte(rng.Intn(256))
			}
			d := diff.Compute(cur, next)
			if err := addFor(buf, 1, 1, int64(i+1), d); err != nil {
				return false
			}
			var err error
			eager, err = diff.Apply(eager, d)
			if err != nil {
				return false
			}
			cur = next
		}
		state := append([]byte(nil), base...)
		for _, od := range buf.Flush(1) {
			var err error
			state, err = diff.Apply(state, od.D)
			if err != nil {
				return false
			}
		}
		return bytes.Equal(state, eager) && bytes.Equal(state, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeDiffs(t *testing.T) {
	diffs := []ObjDiff{
		{Obj: 1, Version: 3, D: mkDiff(t, "aaaa", "abca")},
		{Obj: 7, Version: 1, D: mkDiff(t, "zzzz", "zzzz")},
		{Obj: 9, Version: 5, D: diff.Compute([]byte("aa"), []byte("longer"))},
	}
	enc := EncodeDiffs(diffs)
	dec, err := DecodeDiffs(enc)
	if err != nil {
		t.Fatalf("DecodeDiffs: %v", err)
	}
	if len(dec) != len(diffs) {
		t.Fatalf("decoded %d entries, want %d", len(dec), len(diffs))
	}
	for i := range diffs {
		if dec[i].Obj != diffs[i].Obj || dec[i].Version != diffs[i].Version {
			t.Errorf("entry %d header mismatch: %+v vs %+v", i, dec[i], diffs[i])
		}
	}
	// Empty batch round trip.
	dec, err = DecodeDiffs(EncodeDiffs(nil))
	if err != nil || len(dec) != 0 {
		t.Errorf("empty batch: %v, %v", dec, err)
	}
}

func TestDecodeDiffsCorrupt(t *testing.T) {
	enc := EncodeDiffs([]ObjDiff{{Obj: 1, Version: 1, D: mkDiff(t, "ab", "cd")}})
	cases := map[string][]byte{
		"empty":     {},
		"truncated": enc[:len(enc)-1],
		"trailing":  append(append([]byte{}, enc...), 1),
		"huge count": func() []byte {
			return []byte{0xff, 0xff, 0xff, 0xff, 0x7f}
		}(),
	}
	for name, buf := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeDiffs(buf); err == nil {
				t.Error("accepted corrupt payload")
			}
		})
	}
}

func TestDecodeDiffsFuzzNoPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		buf := make([]byte, rng.Intn(80))
		rng.Read(buf)
		_, _ = DecodeDiffs(buf)
	}
}
