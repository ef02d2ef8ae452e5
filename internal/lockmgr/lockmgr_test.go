package lockmgr

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"sdso/internal/race"
	"sdso/internal/store"
)

func newMgr(t *testing.T, objs ...store.ID) *Manager {
	t.Helper()
	return New(objs, nil)
}

func TestImmediateGrantOnFreeLock(t *testing.T) {
	m := newMgr(t, 1)
	g, err := m.Acquire(Request{Proc: 3, Obj: 1, Mode: Write})
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if len(g) != 1 || g[0].Proc != 3 || g[0].Mode != Write {
		t.Fatalf("grants = %+v", g)
	}
}

func TestSharedReaders(t *testing.T) {
	m := newMgr(t, 1)
	for proc := 0; proc < 3; proc++ {
		g, err := m.Acquire(Request{Proc: proc, Obj: 1, Mode: Read})
		if err != nil {
			t.Fatalf("Acquire(%d): %v", proc, err)
		}
		if len(g) != 1 {
			t.Fatalf("reader %d not granted immediately", proc)
		}
	}
	holders, mode, err := m.Holders(1)
	if err != nil || len(holders) != 3 || mode != Read {
		t.Fatalf("Holders = %v %v %v", holders, mode, err)
	}
}

func TestWriterExcludesAll(t *testing.T) {
	m := newMgr(t, 1)
	if _, err := m.Acquire(Request{Proc: 0, Obj: 1, Mode: Write}); err != nil {
		t.Fatal(err)
	}
	g, err := m.Acquire(Request{Proc: 1, Obj: 1, Mode: Read})
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 0 {
		t.Fatal("reader granted while writer holds lock")
	}
	g, err = m.Acquire(Request{Proc: 2, Obj: 1, Mode: Write})
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 0 {
		t.Fatal("second writer granted while writer holds lock")
	}
	if m.QueueLen(1) != 2 {
		t.Fatalf("QueueLen = %d", m.QueueLen(1))
	}

	// Release: FIFO grants the queued reader first, then stops at writer.
	grants, err := m.Release(0, 1, true, 5)
	if err != nil {
		t.Fatalf("Release: %v", err)
	}
	if len(grants) != 1 || grants[0].Proc != 1 || grants[0].Mode != Read {
		t.Fatalf("grants after release = %+v", grants)
	}
	// Owner moved to the dirty releaser.
	if grants[0].Owner != 0 || grants[0].Version != 5 {
		t.Fatalf("grant owner/version = %d/%d, want 0/5", grants[0].Owner, grants[0].Version)
	}

	grants, err = m.Release(1, 1, false, 0)
	if err != nil {
		t.Fatalf("Release reader: %v", err)
	}
	if len(grants) != 1 || grants[0].Proc != 2 || grants[0].Mode != Write {
		t.Fatalf("writer not granted after readers drained: %+v", grants)
	}
}

func TestQueuedWriterBlocksLaterReaders(t *testing.T) {
	m := newMgr(t, 1)
	m.Acquire(Request{Proc: 0, Obj: 1, Mode: Read})
	m.Acquire(Request{Proc: 1, Obj: 1, Mode: Write}) // queued
	g, err := m.Acquire(Request{Proc: 2, Obj: 1, Mode: Read})
	if err != nil {
		t.Fatal(err)
	}
	if len(g) != 0 {
		t.Fatal("reader jumped the queued writer (starvation hazard)")
	}
	grants, err := m.Release(0, 1, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 1 || grants[0].Proc != 1 {
		t.Fatalf("grants = %+v, want writer 1", grants)
	}
	grants, err = m.Release(1, 1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(grants) != 1 || grants[0].Proc != 2 || grants[0].Version != 1 {
		t.Fatalf("grants = %+v, want reader 2 at version 1", grants)
	}
}

func TestErrors(t *testing.T) {
	m := newMgr(t, 1)
	if _, err := m.Acquire(Request{Proc: 0, Obj: 9, Mode: Read}); !errors.Is(err, ErrNotManaged) {
		t.Errorf("unmanaged acquire: %v", err)
	}
	if _, err := m.Release(0, 9, false, 0); !errors.Is(err, ErrNotManaged) {
		t.Errorf("unmanaged release: %v", err)
	}
	if _, err := m.Acquire(Request{Proc: 0, Obj: 1, Mode: 9}); err == nil {
		t.Error("invalid mode accepted")
	}
	m.Acquire(Request{Proc: 0, Obj: 1, Mode: Write})
	if _, err := m.Acquire(Request{Proc: 0, Obj: 1, Mode: Read}); !errors.Is(err, ErrDoubleLock) {
		t.Errorf("double lock: %v", err)
	}
	m.Acquire(Request{Proc: 1, Obj: 1, Mode: Write}) // queued
	if _, err := m.Acquire(Request{Proc: 1, Obj: 1, Mode: Write}); !errors.Is(err, ErrDoubleLock) {
		t.Errorf("double queue: %v", err)
	}
	if _, err := m.Release(2, 1, false, 0); !errors.Is(err, ErrNotHeld) {
		t.Errorf("release not held: %v", err)
	}
	if _, _, err := m.Owner(9); !errors.Is(err, ErrNotManaged) {
		t.Errorf("owner unmanaged: %v", err)
	}
}

func TestDirtyReleaseOfReadLockRejected(t *testing.T) {
	m := newMgr(t, 1)
	m.Acquire(Request{Proc: 0, Obj: 1, Mode: Read})
	if _, err := m.Release(0, 1, true, 1); !errors.Is(err, ErrWrongRelease) {
		t.Errorf("dirty read release: %v", err)
	}
}

func TestOwnerTracking(t *testing.T) {
	m := New([]store.ID{1}, func(store.ID) int { return 7 })
	owner, ver, err := m.Owner(1)
	if err != nil || owner != 7 || ver != 0 {
		t.Fatalf("initial Owner = %d/%d/%v", owner, ver, err)
	}
	m.Acquire(Request{Proc: 2, Obj: 1, Mode: Write})
	m.Release(2, 1, true, 3)
	owner, ver, _ = m.Owner(1)
	if owner != 2 || ver != 3 {
		t.Errorf("Owner after dirty release = %d/%d", owner, ver)
	}
	// Stale version never regresses.
	m.Acquire(Request{Proc: 4, Obj: 1, Mode: Write})
	m.Release(4, 1, true, 1)
	owner, ver, _ = m.Owner(1)
	if owner != 4 || ver != 3 {
		t.Errorf("version regressed: owner=%d ver=%d", owner, ver)
	}
}

func TestManagerFor(t *testing.T) {
	if ManagerFor(5, 0) != 0 {
		t.Error("n=0 should map to 0")
	}
	for obj := store.ID(0); obj < 100; obj++ {
		h := ManagerFor(obj, 16)
		if h < 0 || h >= 16 {
			t.Fatalf("ManagerFor(%d,16) = %d", obj, h)
		}
		if h != int(obj)%16 {
			t.Fatalf("ManagerFor(%d,16) = %d, want %d", obj, h, int(obj)%16)
		}
	}
}

func TestPartitionEven(t *testing.T) {
	objs := make([]store.ID, 768) // the game's 32x24 world
	for i := range objs {
		objs[i] = store.ID(i)
	}
	parts := Partition(objs, 16)
	for i, p := range parts {
		if len(p) != 48 {
			t.Errorf("partition %d has %d objects, want 48", i, len(p))
		}
		for _, obj := range p {
			if ManagerFor(obj, 16) != i {
				t.Errorf("object %d landed on wrong node %d", obj, i)
			}
		}
	}
}

// TestSafetyAndLivenessRandomSchedules drives the manager with random
// acquire/release schedules and checks:
//   - safety: a write holder is always exclusive; readers never overlap a
//     writer
//   - liveness: once every holder releases, every request was granted
func TestSafetyAndLivenessRandomSchedules(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nProcs = 6
		m := newMgrQuick()
		type held struct{ mode Mode }
		holding := map[int]*held{} // proc -> held lock state
		pending := map[int]Mode{}  // proc -> requested mode
		granted := map[int]int{}   // proc -> grants received
		requested := map[int]int{} // proc -> requests issued
		apply := func(gs []Grant) bool {
			for _, g := range gs {
				if holding[g.Proc] != nil {
					return false // double grant
				}
				if pending[g.Proc] != g.Mode {
					return false
				}
				delete(pending, g.Proc)
				holding[g.Proc] = &held{mode: g.Mode}
				granted[g.Proc]++
			}
			return true
		}
		checkSafety := func() bool {
			writers, readers := 0, 0
			for _, h := range holding {
				if h == nil {
					continue
				}
				if h.mode == Write {
					writers++
				} else {
					readers++
				}
			}
			return writers <= 1 && (writers == 0 || readers == 0)
		}
		for step := 0; step < 200; step++ {
			proc := rng.Intn(nProcs)
			if holding[proc] != nil { // maybe release
				if rng.Intn(2) == 0 {
					dirty := holding[proc].mode == Write && rng.Intn(2) == 0
					gs, err := m.Release(proc, 1, dirty, int64(step))
					if err != nil {
						return false
					}
					delete(holding, proc)
					if !apply(gs) || !checkSafety() {
						return false
					}
				}
				continue
			}
			if _, waiting := pending[proc]; waiting {
				continue
			}
			mode := Read
			if rng.Intn(2) == 0 {
				mode = Write
			}
			pending[proc] = mode
			requested[proc]++
			gs, err := m.Acquire(Request{Proc: proc, Obj: 1, Mode: mode})
			if err != nil {
				return false
			}
			if !apply(gs) || !checkSafety() {
				return false
			}
		}
		// Drain: release everything; queued requests must all be granted.
		for iter := 0; iter < 1000 && (len(holding) > 0 || len(pending) > 0); iter++ {
			for proc := 0; proc < nProcs; proc++ {
				if holding[proc] == nil {
					continue
				}
				gs, err := m.Release(proc, 1, false, 0)
				if err != nil {
					return false
				}
				delete(holding, proc)
				if !apply(gs) || !checkSafety() {
					return false
				}
			}
		}
		if len(pending) != 0 {
			return false // liveness violated
		}
		for proc := range requested {
			if granted[proc] != requested[proc] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func newMgrQuick() *Manager { return New([]store.ID{1}, nil) }

// TestSteadyStateAllocs: once a lock's holders and queue have reached their
// high-water marks, the manager serves requests without allocating — lock
// states live in a slab, holders in the state, grants in the manager's
// scratch.
func TestSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := New([]store.ID{1, 2}, nil)
	round := func() {
		if _, err := m.Acquire(Request{Proc: 3, Obj: 1, Mode: Write}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Release(3, 1, true, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("acquire/release round: %v allocations, want 0", got)
	}
	// A writer holds object 2 while three readers queue behind it; its
	// release grants all three, and their releases leave the lock free.
	drain := func() {
		m.Acquire(Request{Proc: 0, Obj: 2, Mode: Write})
		for p := 1; p <= 3; p++ {
			m.Acquire(Request{Proc: p, Obj: 2, Mode: Read})
		}
		if g, err := m.Release(0, 2, true, 1); err != nil || len(g) != 3 {
			t.Fatalf("drain granted %v (%v), want the three readers", g, err)
		}
		for p := 1; p <= 3; p++ {
			m.Release(p, 2, false, 0)
		}
	}
	if got := testing.AllocsPerRun(100, drain); got != 0 {
		t.Errorf("queued drain: %v allocations, want 0", got)
	}
}
