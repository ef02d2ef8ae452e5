package xlist

import (
	"testing"

	"sdso/internal/diff"
)

// TestSlottedBufferDropReadmit: Drop tombstones a slot (buffered diffs are
// discarded, new ones no longer accumulate) and Readmit re-opens it empty,
// after which writes buffer again — the rejoin life cycle of a slot.
func TestSlottedBufferDropReadmit(t *testing.T) {
	b := NewSlottedBuffer(0, 3, true)
	pre := diff.Compute([]byte("aaaa"), []byte("abba"))
	if err := addFor(b, 1, 7, 1, pre); err != nil {
		t.Fatalf("addFor: %v", err)
	}

	b.Drop(1)
	if !b.Dropped(1) {
		t.Fatal("slot 1 not tombstoned after Drop")
	}
	if b.Dropped(2) {
		t.Fatal("Drop leaked onto slot 2")
	}
	if got := b.Pending(1); got != 0 {
		t.Fatalf("dropped slot still holds %d diffs", got)
	}
	// Writes while dropped vanish (the peer is gone; its history will
	// travel in a snapshot instead).
	if err := addFor(b, 1, 7, 2, pre); err != nil {
		t.Fatalf("addFor a dropped slot: %v", err)
	}
	if got := b.Pending(1); got != 0 {
		t.Fatalf("dropped slot accumulated %d diffs", got)
	}

	b.Readmit(1)
	if b.Dropped(1) {
		t.Fatal("slot 1 still tombstoned after Readmit")
	}
	if got := b.Pending(1); got != 0 {
		t.Fatalf("readmitted slot not empty: %d diffs", got)
	}
	post := diff.Compute([]byte("abba"), []byte("abcd"))
	if err := addFor(b, 1, 7, 3, post); err != nil {
		t.Fatalf("addFor after Readmit: %v", err)
	}
	out := b.Flush(1)
	if len(out) != 1 || out[0].Version != 3 {
		t.Fatalf("Flush after Readmit = %+v, want only the post-readmit diff", out)
	}
}

// TestSlottedBufferReadmitLiveSlot: readmitting a live slot must not clear
// what it holds.
func TestSlottedBufferReadmitLiveSlot(t *testing.T) {
	b := NewSlottedBuffer(0, 2, true)
	if err := addFor(b, 1, 7, 1, diff.Compute([]byte("aa"), []byte("ab"))); err != nil {
		t.Fatalf("addFor: %v", err)
	}
	b.Readmit(1)
	if got := b.Pending(1); got != 1 {
		t.Fatalf("Readmit on a live slot cleared it: %d diffs", got)
	}
}

// TestSlottedBufferDropBounds: self and out-of-range procs are rejected by
// all three operations.
func TestSlottedBufferDropBounds(t *testing.T) {
	b := NewSlottedBuffer(0, 2, true)
	b.Drop(0)  // self
	b.Drop(-1) // out of range
	b.Drop(9)
	if b.Dropped(0) || b.Dropped(-1) || b.Dropped(9) {
		t.Fatal("bounds violations reported as tombstoned")
	}
}
