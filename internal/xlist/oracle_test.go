package xlist

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sdso/internal/diff"
	"sdso/internal/store"
)

// mapBuffer is the slotted buffer as it was before slots became reusable
// sorted slices: a map of per-object diff lists per process, re-made on
// every flush, cloning on every merge. It is kept only as the oracle the
// differential test below holds SlottedBuffer to.
type mapBuffer struct {
	self  int
	n     int
	merge bool
	slots []map[store.ID][]ObjDiff
}

func newMapBuffer(self, n int, merge bool) *mapBuffer {
	slots := make([]map[store.ID][]ObjDiff, n)
	for i := range slots {
		if i != self {
			slots[i] = make(map[store.ID][]ObjDiff)
		}
	}
	return &mapBuffer{self: self, n: n, merge: merge, slots: slots}
}

func (b *mapBuffer) Add(proc int, obj store.ID, version int64, d diff.Diff) error {
	if proc == b.self {
		return nil
	}
	if proc < 0 || proc >= b.n {
		return fmt.Errorf("xlist: no slot for process %d", proc)
	}
	slot := b.slots[proc]
	if slot == nil {
		return nil
	}
	prev := slot[obj]
	if len(prev) == 0 || !b.merge {
		slot[obj] = append(prev, ObjDiff{Obj: obj, Version: version, D: d})
		return nil
	}
	var m diff.Diff
	if err := diff.MergeInto(&m, prev[len(prev)-1].D, d); err != nil {
		return fmt.Errorf("merge buffered diff for obj %d: %w", obj, err)
	}
	prev[len(prev)-1] = ObjDiff{Obj: obj, Version: version, D: m}
	return nil
}

func (b *mapBuffer) AddAll(obj store.ID, version int64, d diff.Diff, skip map[int]bool) error {
	for proc := 0; proc < b.n; proc++ {
		if proc == b.self || skip[proc] {
			continue
		}
		if err := b.Add(proc, obj, version, d); err != nil {
			return err
		}
	}
	return nil
}

func (b *mapBuffer) Pending(proc int) int {
	if proc == b.self || proc < 0 || proc >= b.n {
		return 0
	}
	n := 0
	for _, diffs := range b.slots[proc] {
		n += len(diffs)
	}
	return n
}

func (b *mapBuffer) Objects(proc int) []store.ID {
	if proc == b.self || proc < 0 || proc >= b.n || len(b.slots[proc]) == 0 {
		return nil
	}
	ids := make([]store.ID, 0, len(b.slots[proc]))
	for id := range b.slots[proc] {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

func (b *mapBuffer) Flush(proc int) []ObjDiff {
	ids := b.Objects(proc)
	if ids == nil {
		return nil
	}
	var out []ObjDiff
	for _, id := range ids {
		out = append(out, b.slots[proc][id]...)
	}
	b.slots[proc] = make(map[store.ID][]ObjDiff)
	return out
}

func (b *mapBuffer) Drop(proc int) {
	if proc != b.self && proc >= 0 && proc < b.n {
		b.slots[proc] = nil
	}
}

func (b *mapBuffer) Dropped(proc int) bool {
	return proc != b.self && proc >= 0 && proc < b.n && b.slots[proc] == nil
}

func (b *mapBuffer) Readmit(proc int) {
	if proc != b.self && proc >= 0 && proc < b.n && b.slots[proc] == nil {
		b.slots[proc] = make(map[store.ID][]ObjDiff)
	}
}

// flat renders a flush result by value, so results that share or recycle
// storage compare on content.
func flat(diffs []ObjDiff) string {
	var buf bytes.Buffer
	for _, od := range diffs {
		fmt.Fprintf(&buf, "%d@%d:%x ", od.Obj, od.Version, diff.AppendEncode(nil, od.D))
	}
	return buf.String()
}

// TestSlottedBufferMatchesMapOracle drives SlottedBuffer and the old
// map-backed implementation through the same random sequences of Add /
// AddAll / Flush / Objects / Pending / Drop / Readmit — merge on and off,
// whole-state replacements and run diffs mixed, out-of-range processes
// included — and demands identical observations throughout. It also holds
// Flush to its lifetime promise: a returned slice stays intact until the
// next Flush, whatever Add, AddAll, Drop and Readmit do in between —
// including freeing the records it was copied from and reusing them for
// new writes.
func TestSlottedBufferMatchesMapOracle(t *testing.T) {
	const n, self, objs, stateLen = 6, 2, 12, 16
	for _, merge := range []bool{true, false} {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got, want := NewSlottedBuffer(self, n, merge), newMapBuffer(self, n, merge)
			// held is the last non-empty Flush result and its rendering,
			// until the next Flush releases the promise.
			var held []ObjDiff
			var heldFlat string
			states := make([][]byte, objs) // current state per object, for run diffs
			for i := range states {
				states[i] = make([]byte, stateLen)
			}
			randDiff := func(obj int) diff.Diff {
				next := bytes.Clone(states[obj])
				for k := rng.Intn(4); k >= 0; k-- {
					next[rng.Intn(stateLen)] = byte(rng.Intn(256))
				}
				var d diff.Diff
				if rng.Intn(2) == 0 {
					d = diff.Diff{Replace: true, Len: stateLen, Runs: []diff.Run{{Data: next}}}
				} else {
					d = diff.Compute(states[obj], next)
				}
				states[obj] = next
				return d
			}
			for step := 0; step < 400; step++ {
				proc := rng.Intn(n+2) - 1 // -1 and n are out of range
				obj := rng.Intn(objs)
				ctx := fmt.Sprintf("merge=%v seed=%d step=%d proc=%d", merge, seed, step, proc)
				switch op := rng.Intn(10); {
				case op < 3:
					d := randDiff(obj)
					errG, errW := got.AddAll(store.ID(obj), int64(step), d, only(n, proc)), want.AddAll(store.ID(obj), int64(step), d, only(n, proc))
					if (errG == nil) != (errW == nil) {
						t.Fatalf("%s: AddAll to one err = %v, oracle %v", ctx, errG, errW)
					}
				case op < 5:
					var skip map[int]bool
					if rng.Intn(2) == 0 {
						skip = map[int]bool{rng.Intn(n): true}
					}
					d := randDiff(obj)
					errG, errW := got.AddAll(store.ID(obj), int64(step), d, skip), want.AddAll(store.ID(obj), int64(step), d, skip)
					if (errG == nil) != (errW == nil) {
						t.Fatalf("%s: AddAll err = %v, oracle %v", ctx, errG, errW)
					}
				case op < 8:
					g, w := got.Flush(proc), want.Flush(proc)
					if flat(g) != flat(w) {
						t.Fatalf("%s: Flush = %s\noracle  %s", ctx, flat(g), flat(w))
					}
					if len(g) > 0 {
						held, heldFlat = g, flat(g)
					}
				case op < 9:
					got.Drop(proc)
					want.Drop(proc)
				default:
					got.Readmit(proc)
					want.Readmit(proc)
				}
				for p := -1; p <= n; p++ {
					if g, w := got.Pending(p), want.Pending(p); g != w {
						t.Fatalf("%s: Pending(%d) = %d, oracle %d", ctx, p, g, w)
					}
					if g, w := got.Objects(p), want.Objects(p); !slices.Equal(g, w) {
						t.Fatalf("%s: Objects(%d) = %v, oracle %v", ctx, p, g, w)
					}
					if g, w := got.Dropped(p), want.Dropped(p); g != w {
						t.Fatalf("%s: Dropped(%d) = %v, oracle %v", ctx, p, g, w)
					}
				}
				if flat(held) != heldFlat {
					t.Fatalf("%s: the last Flush's result changed before the next Flush", ctx)
				}
			}
		}
	}
}
