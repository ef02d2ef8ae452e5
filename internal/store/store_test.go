package store

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"sdso/internal/diff"
	"sdso/internal/race"
)

func newTestStore(t *testing.T) *Store {
	t.Helper()
	s := New()
	if err := s.Register(1, []byte("alpha")); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if err := s.Register(2, []byte("beta")); err != nil {
		t.Fatalf("Register: %v", err)
	}
	return s
}

func TestRegisterDuplicate(t *testing.T) {
	s := newTestStore(t)
	if err := s.Register(1, []byte("again")); err == nil {
		t.Error("duplicate Register should fail")
	}
}

func TestGetUnknown(t *testing.T) {
	s := newTestStore(t)
	if _, err := s.Get(99); err == nil {
		t.Error("Get unknown should fail")
	}
	if _, err := s.Version(99); err == nil {
		t.Error("Version unknown should fail")
	}
	if _, err := s.Update(99, nil); err == nil {
		t.Error("Update unknown should fail")
	}
	if err := s.ApplyDiff(99, diff.Diff{}, 0); err == nil {
		t.Error("ApplyDiff unknown should fail")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := newTestStore(t)
	b, err := s.Get(1)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	b[0] = 'X'
	b2, _ := s.Get(1)
	if b2[0] == 'X' {
		t.Error("Get exposed internal state")
	}
}

func TestUpdateBumpsVersionAndDiffs(t *testing.T) {
	s := newTestStore(t)
	d, err := s.Update(1, []byte("alphA"))
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if d.Empty() {
		t.Error("expected non-empty diff")
	}
	if v, _ := s.Version(1); v != 1 {
		t.Errorf("version = %d, want 1", v)
	}
	got, _ := s.Get(1)
	if string(got) != "alphA" {
		t.Errorf("state = %q", got)
	}

	// No-op update: empty diff, no version bump.
	d2, err := s.Update(1, []byte("alphA"))
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	if !d2.Empty() {
		t.Error("no-op update produced a diff")
	}
	if v, _ := s.Version(1); v != 1 {
		t.Errorf("version after no-op = %d, want 1", v)
	}
}

func TestApplyDiffMirrorsUpdate(t *testing.T) {
	// Two replicas: updating one and applying its diff to the other must
	// converge.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a, b := New(), New()
		initial := make([]byte, 16)
		rng.Read(initial)
		if a.Register(7, initial) != nil || b.Register(7, initial) != nil {
			return false
		}
		for i := 0; i < 10; i++ {
			next := make([]byte, 16)
			rng.Read(next)
			d, err := a.Update(7, next)
			if err != nil {
				return false
			}
			v, _ := a.Version(7)
			if err := b.ApplyDiff(7, d, v); err != nil {
				return false
			}
		}
		ab, _ := a.Get(7)
		bb, _ := b.Get(7)
		return bytes.Equal(ab, bb) && a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSetState(t *testing.T) {
	s := newTestStore(t)
	if err := s.SetState(2, []byte("fresh"), 42); err != nil {
		t.Fatalf("SetState: %v", err)
	}
	got, _ := s.Get(2)
	if string(got) != "fresh" {
		t.Errorf("state = %q", got)
	}
	if v, _ := s.Version(2); v != 42 {
		t.Errorf("version = %d, want 42", v)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := newTestStore(t)
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	if _, err := c.Update(1, []byte("delta")); err != nil {
		t.Fatalf("Update: %v", err)
	}
	if s.Equal(c) {
		t.Error("clone shares state with original")
	}
	orig, _ := s.Get(1)
	if string(orig) != "alpha" {
		t.Errorf("original mutated: %q", orig)
	}
}

func TestIDsSorted(t *testing.T) {
	s := New()
	for _, id := range []ID{5, 1, 9, 3} {
		if err := s.Register(id, nil); err != nil {
			t.Fatalf("Register: %v", err)
		}
	}
	ids := s.IDs()
	want := []ID{1, 3, 5, 9}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs = %v, want %v", ids, want)
		}
	}
	if s.Len() != 4 || !s.Has(5) || s.Has(2) {
		t.Error("Len/Has inconsistent")
	}
}

func TestEqualDifferentShapes(t *testing.T) {
	a, b := New(), New()
	a.Register(1, []byte("x"))
	if a.Equal(b) {
		t.Error("stores with different sizes reported equal")
	}
	b.Register(2, []byte("x"))
	if a.Equal(b) {
		t.Error("stores with different IDs reported equal")
	}
}

func TestViewAliasesUntilWrite(t *testing.T) {
	s := newTestStore(t)
	v, err := s.View(1)
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	if string(v) != "alpha" {
		t.Errorf("View = %q", v)
	}
	if _, err := s.View(99); err == nil {
		t.Error("View unknown should fail")
	}
}

// TestIDBound: the store indexes by ID, so it refuses IDs above MaxID —
// from Register and from a snapshot alike — instead of sizing its index by
// them.
func TestIDBound(t *testing.T) {
	s := New()
	if err := s.Register(MaxID, []byte("edge")); err != nil {
		t.Fatalf("Register(MaxID): %v", err)
	}
	if err := s.Register(MaxID+1, []byte("beyond")); err == nil {
		t.Fatal("Register accepted an ID above MaxID")
	}
	if s.Has(MaxID+1) || s.Len() != 1 {
		t.Fatal("a refused Register left a trace")
	}
	if _, err := s.Get(MaxID + 1); err == nil {
		t.Fatal("Get of an out-of-range ID should fail")
	}

	// A snapshot naming an out-of-range ID is malformed, for Merge and
	// Restore both.
	src := New()
	if err := src.Register(3, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	snap := src.Snapshot(0)
	snap[snapshotHeaderSize] = 0xFF // the record's ID becomes 0xFF000003
	for name, load := range map[string]func([]byte) error{
		"Merge":   func(b []byte) error { _, _, err := New().Merge(b); return err },
		"Restore": func(b []byte) error { _, err := New().Restore(b); return err },
	} {
		if err := load(snap); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s of an out-of-range ID: err = %v, want ErrBadSnapshot", name, err)
		}
	}
}

// TestPublishedBytesAreImmutable pins the ownership rule the runtime's
// aliasing rests on: a View is a snapshot no later write, apply or adopt
// changes, and — registered states being carved from shared chunks — an
// append through a View cannot reach a neighbouring object.
func TestPublishedBytesAreImmutable(t *testing.T) {
	s := New()
	for id := ID(0); id < 40; id++ { // spans several arena chunks
		if err := s.Register(id, []byte{byte(id), byte(id), byte(id)}); err != nil {
			t.Fatal(err)
		}
	}
	var views [][]byte
	snapshot := func(id ID) {
		v, err := s.View(id)
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v, bytes.Clone(v))
	}
	snapshot(7)
	if _, err := s.Update(7, []byte("written")); err != nil {
		t.Fatal(err)
	}
	snapshot(7)
	if err := s.ApplyDiff(7, diff.Compute([]byte("written"), []byte("wrItten")), 5); err != nil {
		t.Fatal(err)
	}
	snapshot(7)
	adopted := []byte("adopted")
	if err := s.AdoptStateFrom(7, adopted, 9, 2); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.View(7); &v[0] != &adopted[0] {
		t.Error("AdoptStateFrom copied the state it was given")
	}
	if w, _ := s.WriterOf(7); w != 2 {
		t.Errorf("WriterOf after AdoptStateFrom = %d, want 2", w)
	}
	if err := s.SetState(7, []byte("set"), 10); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(views); i += 2 {
		if !bytes.Equal(views[i], views[i+1]) {
			t.Errorf("View #%d changed under its holder: %q, was %q", i/2, views[i], views[i+1])
		}
	}

	v8, _ := s.View(8)
	_ = append(v8, 0xEE, 0xEE, 0xEE)
	for id := ID(0); id < 40; id++ {
		if id == 7 {
			continue
		}
		if b, _ := s.Get(id); !bytes.Equal(b, []byte{byte(id), byte(id), byte(id)}) {
			t.Fatalf("object %d = %v after an append through object 8's View", id, b)
		}
	}

	// The same for overlay states, carved side by side from one arena chunk
	// by every call that installs one.
	newer := New()
	if err := newer.Register(24, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if _, err := newer.Update(24, []byte("mrg")); err != nil {
		t.Fatal(err)
	}
	install := map[ID]func() error{
		20: func() error { _, err := s.Update(20, []byte("upd")); return err },
		21: func() error { _, _, _, err := s.WriteBy(21, []byte("wri"), 1); return err },
		22: func() error { return s.ApplyDiff(22, diff.Compute([]byte{22, 22, 22}, []byte("app")), 3) },
		23: func() error { return s.SetState(23, []byte("set"), 4) },
		24: func() error { _, _, err := s.Merge(newer.Snapshot(0)); return err },
	}
	for id := ID(20); id <= 24; id++ {
		if err := install[id](); err != nil {
			t.Fatal(err)
		}
	}
	want := map[ID]string{20: "upd", 21: "wri", 22: "app", 23: "set", 24: "mrg"}
	for id := range want {
		v, _ := s.View(id)
		if cap(v) != len(v) {
			t.Errorf("object %d: an installed state has len %d, cap %d", id, len(v), cap(v))
		}
		_ = append(v, 0xEE, 0xEE, 0xEE, 0xEE)
	}
	for id, state := range want {
		if b, _ := s.Get(id); string(b) != state {
			t.Errorf("object %d = %q after appends through its neighbours' Views, want %q", id, b, state)
		}
	}
}

// TestAllocCarvesChunks pins the arena's shape: small states are carved end
// to end from one chunk, zeroed and capacity-clipped; a state above a quarter
// chunk, or an empty one, is no part of any chunk; a clone carves from chunks
// of its own.
func TestAllocCarvesChunks(t *testing.T) {
	s := New()
	a, b := s.Alloc(8), s.Alloc(3)
	if cap(a) != 8 || cap(b) != 3 {
		t.Fatalf("Alloc(8), Alloc(3) have caps %d, %d", cap(a), cap(b))
	}
	if unsafe.Add(unsafe.Pointer(&a[0]), 8) != unsafe.Pointer(&b[0]) {
		t.Error("two small states in a row are not carved end to end")
	}
	if !bytes.Equal(a, make([]byte, 8)) {
		t.Errorf("Alloc returned dirty bytes %x", a)
	}
	if e := s.Alloc(0); e == nil || len(e) != 0 {
		t.Errorf("Alloc(0) = %v, want empty and non-nil", e)
	}
	big := s.Alloc(arenaChunk/4 + 1)
	if c := s.Alloc(1); unsafe.Add(unsafe.Pointer(&b[0]), 3) != unsafe.Pointer(&c[0]) || len(big) != arenaChunk/4+1 {
		t.Error("a state above a quarter chunk was carved from the chunk")
	}
	if c := s.Clone().Alloc(1); unsafe.Add(unsafe.Pointer(&b[0]), 4) == unsafe.Pointer(&c[0]) {
		t.Error("a clone carves from its origin's chunk")
	}
	if race.Enabled {
		return // the detector's instrumentation allocates
	}
	if got := testing.AllocsPerRun(10, func() {
		for i := 0; i < arenaChunk/8; i++ {
			s.Alloc(8)
		}
	}); got > 1 {
		t.Errorf("a chunk's worth of 8-byte states cost %.0f allocations, want 1", got)
	}
}
