package xlist

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"sdso/internal/diff"
	"sdso/internal/store"
)

// The property suite drives a SlottedBuffer through random interleavings of
// AddAll / Flush / Drop / Readmit and checks every observation against a
// deliberately naive reference model: per-proc maps of buffered writes with
// a nil tombstone for dropped slots. The buffer under test uses the
// whole-state Replace diffs the runtime ships, so merged entries must carry
// exactly the latest write's bytes.

type refWrite struct {
	ver  int64
	data []byte
}

type refModel struct {
	self, n int
	merge   bool
	slots   []map[store.ID][]refWrite // nil == tombstoned
}

func newRefModel(self, n int, merge bool) *refModel {
	m := &refModel{self: self, n: n, merge: merge, slots: make([]map[store.ID][]refWrite, n)}
	for i := range m.slots {
		if i != self {
			m.slots[i] = make(map[store.ID][]refWrite)
		}
	}
	return m
}

func (m *refModel) addAll(obj store.ID, ver int64, data []byte, skip map[int]bool) {
	for p := 0; p < m.n; p++ {
		if p == m.self || skip[p] || m.slots[p] == nil {
			continue
		}
		w := refWrite{ver: ver, data: append([]byte(nil), data...)}
		prev := m.slots[p][obj]
		if m.merge && len(prev) > 0 {
			prev[len(prev)-1] = w // a Replace over a Replace is the new Replace
		} else {
			m.slots[p][obj] = append(prev, w)
		}
	}
}

func (m *refModel) flush(p int) []refWrite {
	if p == m.self || m.slots[p] == nil {
		return nil
	}
	var out []refWrite
	for obj := store.ID(0); int(obj) < 64; obj++ { // ascending object order
		out = append(out, m.slots[p][obj]...)
	}
	m.slots[p] = make(map[store.ID][]refWrite)
	return out
}

func (m *refModel) drop(p int) {
	if p != m.self {
		m.slots[p] = nil
	}
}

func (m *refModel) readmit(p int) {
	if p != m.self && m.slots[p] == nil {
		m.slots[p] = make(map[store.ID][]refWrite)
	}
}

func (m *refModel) pending(p int) int {
	if p == m.self || m.slots[p] == nil {
		return 0
	}
	n := 0
	for _, ws := range m.slots[p] {
		n += len(ws)
	}
	return n
}

func (m *refModel) objects(p int) []store.ID {
	if p == m.self || m.slots[p] == nil {
		return nil
	}
	var ids []store.ID
	for obj := store.ID(0); int(obj) < 64; obj++ {
		if len(m.slots[p][obj]) > 0 {
			ids = append(ids, obj)
		}
	}
	return ids
}

func replacePayload(rng *rand.Rand) []byte {
	b := make([]byte, 4+rng.Intn(8))
	rng.Read(b)
	return b
}

func replaceOf(data []byte) diff.Diff {
	cp := append([]byte(nil), data...)
	return diff.Diff{Replace: true, Len: len(cp), Runs: []diff.Run{{Off: 0, Data: cp}}}
}

// checkAgainstModel compares every read-only observation of the buffer with
// the model's.
func checkAgainstModel(t *testing.T, step int, b *SlottedBuffer, m *refModel) {
	t.Helper()
	for p := 0; p < m.n; p++ {
		if got, want := b.Dropped(p), p != m.self && m.slots[p] == nil; got != want {
			t.Fatalf("step %d: Dropped(%d) = %v, want %v", step, p, got, want)
		}
		if got, want := b.Pending(p), m.pending(p); got != want {
			t.Fatalf("step %d: Pending(%d) = %d, want %d", step, p, got, want)
		}
		gotIDs := b.Objects(p)
		wantIDs := m.objects(p)
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("step %d: Objects(%d) = %v, want %v", step, p, gotIDs, wantIDs)
		}
		for i := range gotIDs {
			if gotIDs[i] != wantIDs[i] {
				t.Fatalf("step %d: Objects(%d) = %v, want %v", step, p, gotIDs, wantIDs)
			}
		}
	}
}

func runPropertySeq(t *testing.T, seed int64, merge bool) {
	t.Helper()
	const n, self, steps = 4, 0, 400
	rng := rand.New(rand.NewSource(seed))
	b := NewSlottedBuffer(self, n, merge)
	m := newRefModel(self, n, merge)

	for step := 0; step < steps; step++ {
		p := rng.Intn(n)
		switch op := rng.Intn(10); {
		case op < 5: // write: the common case
			obj := store.ID(rng.Intn(64))
			ver := int64(step + 1)
			data := replacePayload(rng)
			var skip map[int]bool
			if rng.Intn(3) == 0 {
				skip = map[int]bool{rng.Intn(n): true}
			}
			if err := b.AddAll(obj, ver, replaceOf(data), skip); err != nil {
				t.Fatalf("step %d: AddAll: %v", step, err)
			}
			m.addAll(obj, ver, data, skip)
		case op < 7: // flush one peer and compare the drained sequence
			got := b.Flush(p)
			want := m.flush(p)
			if len(got) != len(want) {
				t.Fatalf("step %d: Flush(%d) drained %d diffs, want %d", step, p, len(got), len(want))
			}
			for i := range got {
				if got[i].Version != want[i].ver {
					t.Fatalf("step %d: Flush(%d)[%d] version %d, want %d", step, p, i, got[i].Version, want[i].ver)
				}
				if !got[i].D.Replace || !bytes.Equal(got[i].D.Runs[0].Data, want[i].data) {
					t.Fatalf("step %d: Flush(%d)[%d] obj %d carries wrong bytes", step, p, i, got[i].Obj)
				}
			}
			for i := 1; i < len(got); i++ {
				if got[i].Obj < got[i-1].Obj {
					t.Fatalf("step %d: Flush(%d) not ordered by object: %d after %d", step, p, got[i].Obj, got[i-1].Obj)
				}
			}
		case op < 8:
			b.Drop(p)
			m.drop(p)
		case op < 9:
			b.Readmit(p)
			m.readmit(p)
		default: // self-directed traffic must be inert
			if err := addFor(b, self, store.ID(rng.Intn(64)), int64(step), replaceOf(replacePayload(rng))); err != nil {
				t.Fatalf("step %d: addFor(self): %v", step, err)
			}
		}
		checkAgainstModel(t, step, b, m)
	}
}

// TestSlottedBufferProperties cross-checks the slotted buffer against the
// reference model over random schedules, with and without diff merging.
func TestSlottedBufferProperties(t *testing.T) {
	seeds := 4
	if !testing.Short() {
		seeds = 16
	}
	for _, merge := range []bool{true, false} {
		for seed := 0; seed < seeds; seed++ {
			merge, seed := merge, int64(seed)
			t.Run(fmt.Sprintf("merge=%v/seed=%d", merge, seed), func(t *testing.T) {
				runPropertySeq(t, seed, merge)
			})
		}
	}
}

// TestSlottedBufferDropReadmitCycle pins the tombstone lifecycle: writes
// into a dropped slot vanish, Readmit starts the slot empty, and a second
// Readmit of a live slot is a no-op that preserves buffered diffs.
func TestSlottedBufferDropReadmitCycle(t *testing.T) {
	b := NewSlottedBuffer(0, 3, true)
	if err := b.AddAll(5, 1, replaceOf([]byte("a")), nil); err != nil {
		t.Fatal(err)
	}
	b.Drop(1)
	if !b.Dropped(1) || b.Pending(1) != 0 {
		t.Fatalf("after Drop: Dropped=%v Pending=%d", b.Dropped(1), b.Pending(1))
	}
	if err := b.AddAll(6, 2, replaceOf([]byte("b")), nil); err != nil {
		t.Fatal(err)
	}
	if b.Pending(1) != 0 {
		t.Fatalf("dropped slot accumulated %d diffs", b.Pending(1))
	}
	b.Readmit(1)
	if b.Dropped(1) || b.Pending(1) != 0 {
		t.Fatalf("after Readmit: Dropped=%v Pending=%d, want live and empty", b.Dropped(1), b.Pending(1))
	}
	if err := b.AddAll(7, 3, replaceOf([]byte("c")), nil); err != nil {
		t.Fatal(err)
	}
	b.Readmit(1) // live slot: must keep the buffered diff
	if got := b.Pending(1); got != 1 {
		t.Fatalf("Readmit of live slot lost diffs: Pending=%d, want 1", got)
	}
	if got := b.Flush(1); len(got) != 1 || got[0].Obj != 7 {
		t.Fatalf("Flush after cycle = %+v, want the single obj-7 diff", got)
	}
}
