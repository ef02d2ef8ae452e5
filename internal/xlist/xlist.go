// Package xlist implements the two bookkeeping structures at the heart of
// S-DSO's lookahead machinery (paper §3.1, Figures 2 and 3):
//
//   - The exchange-list: a time-ordered list of (exchange-time, process)
//     pairs recording when the local process must next exchange updates
//     with each remote process. "The list is ordered 'earliest
//     exchange-time first' and not by process IDs."
//
//   - The slotted buffer: one slot per remote process holding the object
//     diffs that process has not yet been sent. "S-DSO can be tuned to
//     merge multiple diffs to the same object into one diff since the last
//     exchange with a given process."
package xlist

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"sdso/internal/diff"
	"sdso/internal/store"
)

// compareEntries orders entries by (time, proc) — the exchange-list order.
// A single named comparator avoids re-allocating a closure (and its capture)
// on every Due/Entries call inside the protocols' exchange loops.
func compareEntries(a, b Entry) int {
	switch {
	case a.Time != b.Time:
		if a.Time < b.Time {
			return -1
		}
		return 1
	case a.Proc != b.Proc:
		if a.Proc < b.Proc {
			return -1
		}
		return 1
	default:
		return 0
	}
}

// Entry is one (exchange-time, process) pair.
type Entry struct {
	Time int64
	Proc int
}

// List is the exchange-list: at most one pending exchange time per remote
// process, read earliest-first (ties broken by process ID for determinism).
// Processes are small dense integers, so the list is a table indexed by
// process that grows to the highest process scheduled; the paper's
// time-ordered rendering is produced on read (Due, Entries, Peek), which is
// where the order matters.
type List struct {
	items []listItem // indexed by process
	n     int        // scheduled processes
	due   []Entry    // Due's result buffer
}

type listItem struct {
	time      int64
	scheduled bool
}

// NewList returns an empty exchange-list.
func NewList() *List { return &List{} }

// Reserve sizes the list for processes 0 … n-1, so that neither Set nor
// Due grows a buffer for them.
func (l *List) Reserve(n int) {
	l.items = slices.Grow(l.items, max(n-len(l.items), 0))
	l.due = slices.Grow(l.due[:0], n)
}

// Set schedules (or reschedules) the exchange time for proc, which must not
// be negative.
func (l *List) Set(proc int, t int64) {
	if proc >= len(l.items) {
		l.items = append(l.items, make([]listItem, proc+1-len(l.items))...)
	}
	it := &l.items[proc]
	if !it.scheduled {
		it.scheduled = true
		l.n++
	}
	it.time = t
}

// Remove drops proc from the list (e.g., the process announced DONE).
func (l *List) Remove(proc int) {
	if proc < 0 || proc >= len(l.items) || !l.items[proc].scheduled {
		return
	}
	l.items[proc].scheduled = false
	l.n--
}

// Time returns proc's scheduled exchange time.
func (l *List) Time(proc int) (int64, bool) {
	if proc < 0 || proc >= len(l.items) || !l.items[proc].scheduled {
		return 0, false
	}
	return l.items[proc].time, true
}

// Len returns the number of scheduled processes.
func (l *List) Len() int { return l.n }

// Due returns, in ascending (time, proc) order, every process whose
// exchange time is <= now. The entries remain scheduled; callers
// reschedule them via Set after the exchange completes (the paper's
// exchange() deletes the entry and has the s-function compute a new time).
// The result is the list's own buffer: it stays valid (Set and Remove do
// not touch it) until the next Due call.
func (l *List) Due(now int64) []Entry {
	l.due = l.appendUpTo(l.due[:0], now)
	return l.due
}

// appendUpTo appends the entries scheduled at or before now to dst in
// (time, proc) order.
func (l *List) appendUpTo(dst []Entry, now int64) []Entry {
	for proc, it := range l.items {
		if it.scheduled && it.time <= now {
			dst = append(dst, Entry{Time: it.time, Proc: proc})
		}
	}
	// The scan is in process order, which is already the answer whenever
	// the times agree (BSYNC's every-tick schedule).
	if !slices.IsSortedFunc(dst, compareEntries) {
		slices.SortFunc(dst, compareEntries)
	}
	return dst
}

// String renders the list like Figure 2: (t1,p1) (t2,p2) ...
func (l *List) String() string {
	s := ""
	for _, e := range l.appendUpTo(nil, math.MaxInt64) {
		s += fmt.Sprintf("(%d,%d) ", e.Time, e.Proc)
	}
	return s
}

// ObjDiff pairs an object with a (possibly merged) diff and the version the
// diff produces.
type ObjDiff struct {
	Obj     store.ID
	Version int64
	D       diff.Diff
}

// SlottedBuffer buffers outstanding object modifications per remote
// process (paper Figure 3). One slot per remote process; the local
// process's slot stays empty.
//
// A write is stored once: AddAll makes one record of it, and every slot it
// waits in names that record (DESIGN.md §15, the bookkeeping rule). The
// buffer never keeps a caller's Runs slice — the record copies the runs, a
// single one inline — but it shares their data: Flush may hand the bytes
// out again, and in merge mode a whole-state replacement arriving over a
// buffered diff simply takes its place in every slot. That is sound because
// published state bytes are immutable (DESIGN.md, "Ownership and memory"):
// callers must not modify a diff's run data after adding it.
type SlottedBuffer struct {
	self  int
	n     int
	merge bool
	slots []slot
	recs  Slab[record]   // every buffered write, once
	pool  Blocks[record] // every slot's storage
	out   []ObjDiff      // Flush's result
	runs  []diff.Run     // the runs of Flush's result
	// first is out's storage until a flush outgrows it: a buffer whose
	// flushes stay small allocates no result.
	first [minBlock]ObjDiff
}

// record is one buffered write and the number of slots naming it. A
// caller's diff keeps its run in run (a replacement has exactly one) and
// any others in a copy; a merge's result is the buffer's own and is kept
// as made. The last slot to flush it, merge past it or drop it frees it,
// cleared: a free record pins no diff.
type record struct {
	ObjDiff
	run  [1]diff.Run
	refs int
}

// slot is one process's pending diffs, kept sorted by object and, within an
// object, oldest first — the order Flush promises — so a write finds its
// object by binary search however long a withheld peer's backlog grows.
// pending is a block of the buffer's pool holding pointers to records: Add
// refills it, a full one moves to the next size class and Drop gives it
// back, so slots share what any of them outgrew and a steady-state slot
// allocates nothing.
type slot struct {
	pending []*record
	dropped bool
}

// NewSlottedBuffer returns a buffer for a group of n processes with local
// ID self. If merge is true, successive diffs to the same object collapse
// into one — the paper's §3.1 optimization ("merge multiple diffs to the
// same object into one diff since the last exchange"). With merge false,
// every intermediate diff is retained and shipped, which the ablation bench
// uses to measure the optimization's payoff.
func NewSlottedBuffer(self, n int, merge bool) *SlottedBuffer {
	b := &SlottedBuffer{self: self, n: n, merge: merge, slots: make([]slot, n)}
	b.out = b.first[:0]
	return b
}

// remote reports whether proc names a slot other than the local one.
func (b *SlottedBuffer) remote(proc int) bool {
	return proc != b.self && proc >= 0 && proc < b.n
}

// AddAll records the change for every remote process except those in skip.
// The slots it reaches share one record of it.
func (b *SlottedBuffer) AddAll(obj store.ID, version int64, d diff.Diff, skip map[int]bool) error {
	var rec *record
	od := ObjDiff{Obj: obj, Version: version, D: d}
	for proc := 0; proc < b.n; proc++ {
		if proc == b.self || skip[proc] {
			continue
		}
		if err := b.add(&b.slots[proc], &rec, od); err != nil {
			return err
		}
	}
	return nil
}

// add buffers od in sl. *rec is od's record, made on first use and shared
// by every slot that takes od as it is; a slot that merges od into a
// partial diff it buffered gets a record of its own.
func (b *SlottedBuffer) add(sl *slot, rec **record, od ObjDiff) error {
	if sl.dropped {
		return nil // dropped peer: nothing accumulates until Readmit
	}
	// at is one past obj's last buffered diff: where a new one goes.
	at := sort.Search(len(sl.pending), func(i int) bool { return sl.pending[i].Obj > od.Obj })
	if !b.merge || at == 0 || sl.pending[at-1].Obj != od.Obj {
		sl.pending = b.pool.Insert(sl.pending, at, b.ref(rec, od))
		return nil
	}
	last := sl.pending[at-1]
	if od.D.Replace { // a replacement supersedes whatever was buffered
		b.release(last)
		sl.pending[at-1] = b.ref(rec, od)
		return nil
	}
	// MergeInto with a fresh destination: the merge-walk emits each output
	// run once instead of Merge's split-then-coalesce spans. The destination
	// must not be recycled scratch — Flush hands the diff to callers, and
	// other slots may share last.D.
	var m diff.Diff
	if err := diff.MergeInto(&m, last.D, od.D); err != nil {
		return fmt.Errorf("merge buffered diff for obj %d: %w", od.Obj, err)
	}
	b.release(last)
	own := b.recs.New()
	own.ObjDiff, own.refs = ObjDiff{Obj: od.Obj, Version: od.Version, D: m}, 1
	sl.pending[at-1] = own
	return nil
}

// ref returns *rec with one more slot naming it, making it from od first if
// it is nil. The record copies od's runs, so the caller's slice may live on
// its stack.
func (b *SlottedBuffer) ref(rec **record, od ObjDiff) *record {
	if *rec == nil {
		r := b.recs.New()
		r.Obj, r.Version, r.D.Replace, r.D.Len = od.Obj, od.Version, od.D.Replace, od.D.Len
		if len(od.D.Runs) > 0 {
			r.D.Runs = append(r.run[:0], od.D.Runs...)
		}
		*rec = r
	}
	(*rec).refs++
	return *rec
}

// release drops one slot's name for r, freeing r when it was the last.
func (b *SlottedBuffer) release(r *record) {
	if r.refs--; r.refs == 0 {
		b.recs.Free(r)
	}
}

// Pending returns the number of buffered object diffs for proc.
func (b *SlottedBuffer) Pending(proc int) int {
	if !b.remote(proc) {
		return 0
	}
	return len(b.slots[proc].pending)
}

// Flush removes and returns proc's buffered diffs, ordered by ascending
// object ID and, within an object, oldest first (so sequential application
// at the receiver reproduces the writer's final state). The result, runs
// included, is the buffer's own scratch — a record the flush frees may be
// reused by the next Add — and it stays valid until the next Flush, for
// any process: encode or copy it before flushing again.
func (b *SlottedBuffer) Flush(proc int) []ObjDiff {
	if !b.remote(proc) {
		return nil
	}
	sl := &b.slots[proc]
	if len(sl.pending) == 0 {
		return nil
	}
	// The last result must not pin its diffs, nor may first, which keeps
	// the head of a result that outgrew it.
	clear(b.out)
	clear(b.first[:])
	clear(b.runs)
	// runs has room for a run per record, so it never moves while out
	// names it.
	runs, out := slices.Grow(b.runs[:0], len(sl.pending)), slices.Grow(b.out[:0], len(sl.pending))
	for _, r := range sl.pending {
		od := r.ObjDiff
		if n := len(runs); len(od.D.Runs) == 1 { // inline: a freed record is cleared
			runs = append(runs, od.D.Runs[0])
			od.D.Runs = runs[n : n+1 : n+1]
		}
		out = append(out, od)
		b.release(r)
	}
	clear(sl.pending)
	sl.pending = sl.pending[:0]
	b.runs, b.out = runs, out
	return out
}

// Objects returns the IDs of objects with buffered diffs for proc, in
// ascending order.
func (b *SlottedBuffer) Objects(proc int) []store.ID { return b.AppendObjects(nil, proc) }

// AppendObjects appends Objects(proc) to dst.
func (b *SlottedBuffer) AppendObjects(dst []store.ID, proc int) []store.ID {
	if !b.remote(proc) {
		return dst
	}
	pending := b.slots[proc].pending
	for i, r := range pending {
		if i == 0 || r.Obj != pending[i-1].Obj {
			dst = append(dst, r.Obj)
		}
	}
	return dst
}

// Drop discards proc's buffered diffs and tombstones the slot: a dropped
// process (DONE, evicted as crashed, or absent from the initial
// membership) accumulates nothing until Readmit re-opens its slot.
func (b *SlottedBuffer) Drop(proc int) {
	if !b.remote(proc) {
		return
	}
	for _, r := range b.slots[proc].pending {
		b.release(r)
	}
	b.pool.Put(b.slots[proc].pending)
	b.slots[proc] = slot{dropped: true}
}

// Dropped reports whether proc's slot is tombstoned.
func (b *SlottedBuffer) Dropped(proc int) bool {
	return b.remote(proc) && b.slots[proc].dropped
}

// Readmit re-opens the slot of a previously dropped process so future
// writes buffer for it again — the slotted-buffer half of peer rejoin. The
// joiner's missed history travels in the store snapshot, so the re-opened
// slot starts empty. Readmitting a live slot is a no-op.
func (b *SlottedBuffer) Readmit(proc int) {
	if !b.remote(proc) {
		return
	}
	b.slots[proc].dropped = false
}
