package xlist

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"sdso/internal/diff"
	"sdso/internal/race"
	"sdso/internal/store"
)

// TestSlotRecordsAreShared is the witness for the bookkeeping rule (DESIGN.md
// §15: a write is stored once, slots name it): one AddAll to k live slots
// holds one record, and that record goes back to the slab only once every
// slot has flushed it, merged past it or dropped it — cleared, so a freed
// record pins no state bytes (the poison check of core's
// TestResetTablesPinNoState, on the slab under the slots).
func TestSlotRecordsAreShared(t *testing.T) {
	const self, k = 0, 4
	replace := func(data []byte) diff.Diff {
		return diff.Diff{Replace: true, Len: len(data), Runs: []diff.Run{{Data: data}}}
	}
	for _, merge := range []bool{true, false} {
		b := NewSlottedBuffer(self, k+1, merge)
		poison := bytes.Repeat([]byte{0xFF}, 8)
		if err := b.AddAll(5, 1, replace(poison), nil); err != nil {
			t.Fatal(err)
		}
		rec := b.slots[1].pending[0]
		for p := 1; p <= k; p++ {
			if got := b.slots[p].pending; len(got) != 1 || got[0] != rec {
				t.Fatalf("merge=%v: slot %d holds its own copy of the write", merge, p)
			}
		}
		if rec.refs != k {
			t.Fatalf("merge=%v: the write's record has %d names, want %d", merge, rec.refs, k)
		}
		// fresh buffers one more write for slot 4 and returns its record,
		// which must never be one a slot still names.
		fresh := func(obj store.ID) *record {
			t.Helper()
			if err := addFor(b, 4, obj, 1, replace([]byte{1})); err != nil {
				t.Fatal(err)
			}
			pending := b.slots[4].pending
			return pending[len(pending)-1]
		}

		out := b.Flush(1)
		if len(out) != 1 || !bytes.Equal(out[0].D.Runs[0].Data, poison) {
			t.Fatalf("merge=%v: Flush(1) = %+v", merge, out)
		}
		if merge {
			// A replacement over the buffered write: slot 2 merges past it.
			if err := addFor(b, 2, 5, 2, replace([]byte{2})); err != nil {
				t.Fatal(err)
			}
			if b.slots[2].pending[0] == rec {
				t.Fatalf("slot 2 still names the write it merged past")
			}
		} else {
			b.Flush(2)
		}
		b.Drop(3)
		if rec.refs != 1 {
			t.Fatalf("merge=%v: %d names left after three slots let go, want 1", merge, rec.refs)
		}
		r9 := fresh(9)
		if r9 == rec {
			t.Fatalf("merge=%v: a record slot 4 still names was handed out again", merge)
		}
		if out := b.Flush(4); len(out) != 2 || !bytes.Equal(out[0].D.Runs[0].Data, poison) {
			t.Fatalf("merge=%v: Flush(4) = %+v", merge, out)
		}
		if !reflect.ValueOf(*rec).IsZero() {
			t.Fatalf("merge=%v: the freed record still holds %+v", merge, *rec)
		}
		// The slab reuses what it freed, most recent first: Flush(4) freed
		// the write's record, then slot 4's second one.
		if fresh(10) != r9 || fresh(11) != rec {
			t.Fatalf("merge=%v: the freed records were not reused", merge)
		}

		// Flush's scratch pins no state bytes either: a result that outgrew
		// the inline head, then the next result, leave none of the first's
		// diffs behind.
		for obj := store.ID(20); obj < 20+2*minBlock; obj++ {
			if err := b.AddAll(obj, 3, replace(poison), nil); err != nil {
				t.Fatal(err)
			}
		}
		if out := b.Flush(1); len(out) != 2*minBlock {
			t.Fatalf("merge=%v: Flush(1) returned %d diffs, want %d", merge, len(out), 2*minBlock)
		}
		b.Flush(2)
		if !reflect.ValueOf(b.first).IsZero() {
			t.Fatalf("merge=%v: Flush's scratch still holds %+v", merge, b.first)
		}
	}
}

// TestSlotRecordRetention is the buffer's memory law, in the idiom of core's
// TestMemoryLaw: the slab holds at most the peak number of live references
// plus one chunk of records, whatever the number of writes. The records it
// holds are counted as the distinct records any slot ever named: one that
// leaked, never freed for reuse, stays in the count while new ones join it.
// Random traffic
// — AddAll and Add, whole-state replacements and run diffs, merge on and
// off, Flush, Drop and Readmit — buffers thousands of writes while the live
// references stay bounded.
func TestSlotRecordRetention(t *testing.T) {
	const n, self, objs, stateLen = 8, 3, 16, 16
	chunk := maxChunkBytes / int(unsafe.Sizeof(slabCell[record]{}))
	for _, merge := range []bool{true, false} {
		rng := rand.New(rand.NewSource(1))
		b := NewSlottedBuffer(self, n, merge)
		state := make([]byte, stateLen)
		peak, writes := 0, 0
		seen := make(map[*record]bool)
		for step := 0; step < 20000; step++ {
			proc := rng.Intn(n)
			switch op := rng.Intn(20); {
			case op < 12:
				next := bytes.Clone(state)
				next[rng.Intn(stateLen)] = byte(rng.Intn(256))
				d := diff.Compute(state, next)
				if rng.Intn(2) == 0 {
					d = diff.Diff{Replace: true, Len: stateLen, Runs: []diff.Run{{Data: next}}}
				}
				state = next
				obj := store.ID(rng.Intn(objs))
				var err error
				if op < 9 {
					err = b.AddAll(obj, int64(step), d, nil)
				} else {
					err = addFor(b, proc, obj, int64(step), d)
				}
				if err != nil {
					t.Fatal(err)
				}
				writes++
			case op < 18:
				b.Flush(proc)
			case op < 19:
				b.Drop(proc)
			default:
				b.Readmit(proc)
			}
			live := 0
			for p := 0; p < n; p++ {
				live += b.Pending(p)
				for _, r := range b.slots[p].pending {
					seen[r] = true
				}
			}
			peak = max(peak, live)
		}
		held := len(seen)
		t.Logf("merge=%v: %d writes, peak %d live references, %d records held (chunk %d)", merge, writes, peak, held, chunk)
		if held > peak+chunk {
			t.Errorf("merge=%v: the slab holds %d records, want at most %d live references + %d", merge, held, peak, chunk)
		}
		if writes < 10*(peak+chunk) {
			t.Fatalf("merge=%v: %d writes cannot tell the bound from no reuse", merge, writes)
		}
	}
}

// TestFlushedReplacementOutlivesItsRecord: a record keeps a replacement's
// run inline, and a freed record is cleared and handed to the next write,
// so Flush hands out a copy of the run: a flushed diff still reads its own
// state after its record was let go by every slot and reused. And since
// the buffer never keeps the caller's Runs slice, a replacement literal
// stays on the caller's stack: once the buffer is warm, AddAll of one
// allocates nothing (nor does the Flush that keeps the buffer steady).
func TestFlushedReplacementOutlivesItsRecord(t *testing.T) {
	for _, merge := range []bool{true, false} {
		b := NewSlottedBuffer(0, 3, merge)
		first, second := []byte("first state"), []byte("second state")
		if err := b.AddAll(7, 1, diff.Diff{Replace: true, Len: len(first), Runs: []diff.Run{{Data: first}}}, nil); err != nil {
			t.Fatal(err)
		}
		rec := b.slots[1].pending[0]
		out := b.Flush(1)
		b.Drop(2)
		if !reflect.ValueOf(*rec).IsZero() {
			t.Fatalf("merge=%v: the record outlived its last slot: %+v", merge, *rec)
		}
		if err := b.AddAll(8, 2, diff.Diff{Replace: true, Len: len(second), Runs: []diff.Run{{Data: second}}}, nil); err != nil {
			t.Fatal(err)
		}
		if b.slots[1].pending[0] != rec {
			t.Fatalf("merge=%v: the second write did not reuse the freed record", merge)
		}
		if len(out) != 1 || out[0].Obj != 7 || out[0].Version != 1 || !out[0].D.Replace ||
			len(out[0].D.Runs) != 1 || !bytes.Equal(out[0].D.Runs[0].Data, first) {
			t.Fatalf("merge=%v: the first flush now reads %+v, want object 7 at version 1 = %q", merge, out, first)
		}

		if race.Enabled {
			continue // the detector's instrumentation allocates
		}
		state := []byte("warm")
		allocs := testing.AllocsPerRun(100, func() {
			if err := b.AddAll(9, 3, diff.Diff{Replace: true, Len: len(state), Runs: []diff.Run{{Data: state}}}, nil); err != nil {
				t.Fatal(err)
			}
			b.Flush(1)
		})
		if allocs != 0 {
			t.Fatalf("merge=%v: AddAll of a replacement literal and its Flush make %.1f allocations once warm, want 0", merge, allocs)
		}
	}
}
