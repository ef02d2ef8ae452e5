// Package lockmgr implements the distributed lock management at the core of
// the entry-consistency baseline (paper §4): "Each object is associated with
// one lock, and a lock is acquired by sending a request to the associated
// lock manager. The lock managers are distributed evenly and statically
// amongst the processors in the system. Each lock manager maintains a list
// of pending writers and the identity of the owner of the most up-to-date
// object copy. Processes can acquire either exclusive write-locks or
// shared-read locks."
//
// Manager is a pure state machine — it performs no I/O. The entry
// consistency protocol drives it from each node's service loop and sends
// the grants the manager emits. In steady state it does not allocate: lock
// states are carved from one slab, holders live in each state's inline
// array, and grants come back in the manager's scratch.
package lockmgr

import (
	"errors"
	"fmt"
	"slices"

	"sdso/internal/store"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes.
const (
	// Read is a shared read lock.
	Read Mode = iota + 1
	// Write is an exclusive write lock.
	Write
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Read:
		return "read"
	case Write:
		return "write"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Request asks for a lock on Obj in the given Mode on behalf of Proc.
type Request struct {
	Proc int
	Obj  store.ID
	Mode Mode
}

// Grant tells Proc it now holds Obj in Mode. Owner names the process
// holding the freshest copy and Version its version; a grantee whose local
// version is older must pull the object from Owner before using it.
type Grant struct {
	Proc    int
	Obj     store.ID
	Mode    Mode
	Owner   int
	Version int64
}

// Errors reported by the manager.
var (
	ErrNotManaged   = errors.New("lockmgr: object not managed here")
	ErrDoubleLock   = errors.New("lockmgr: process already holds or requested this lock")
	ErrNotHeld      = errors.New("lockmgr: process does not hold this lock")
	ErrWrongRelease = errors.New("lockmgr: release mode does not match held mode")
)

type lockState struct {
	mode    Mode  // meaningful only when holders is non-empty
	holders []int // ascending; backed by inline until it outgrows it
	queue   []Request
	owner   int
	version int64
	inline  [2]int
}

// newStates returns n free lock states in one slab. A state's holders point
// into the state itself, so states are used in place, never copied.
func newStates(n int) []lockState {
	slab := make([]lockState, n)
	for i := range slab {
		slab[i].holders = slab[i].inline[:0]
	}
	return slab
}

// Manager manages the locks for a static subset of the shared objects.
// Acquire, Release and PurgeProc return their grants in the manager's
// scratch, valid until the next call to any of the three.
type Manager struct {
	locks  map[store.ID]*lockState
	grants []Grant
}

// New returns a manager for the given objects. initialOwner names the
// process initially holding each object's authoritative copy (version 0 —
// every replica starts identical, so any process may serve it; the paper's
// setup replicates the initial environment everywhere).
func New(objs []store.ID, initialOwner func(store.ID) int) *Manager {
	m := &Manager{locks: make(map[store.ID]*lockState, len(objs))}
	slab := newStates(len(objs))
	for i, obj := range objs {
		if initialOwner != nil {
			slab[i].owner = initialOwner(obj)
		}
		m.locks[obj] = &slab[i]
	}
	return m
}

// Manages reports whether obj's lock lives at this manager.
func (m *Manager) Manages(obj store.ID) bool {
	_, ok := m.locks[obj]
	return ok
}

// Owner returns the process holding the freshest copy of obj and its
// version.
func (m *Manager) Owner(obj store.ID) (proc int, version int64, err error) {
	st, ok := m.locks[obj]
	if !ok {
		return 0, 0, fmt.Errorf("%w: %d", ErrNotManaged, obj)
	}
	return st.owner, st.version, nil
}

// Acquire processes a lock request and returns any grants that can be
// issued immediately (at most one: the request's own, since an acquire
// never unblocks other waiters). A request that cannot be granted is queued
// FIFO and granted by a later Release. The grants are the manager's scratch.
func (m *Manager) Acquire(req Request) ([]Grant, error) {
	st, ok := m.locks[req.Obj]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotManaged, req.Obj)
	}
	if req.Mode != Read && req.Mode != Write {
		return nil, fmt.Errorf("lockmgr: invalid mode %d", req.Mode)
	}
	if slices.Contains(st.holders, req.Proc) {
		return nil, fmt.Errorf("%w: proc %d obj %d", ErrDoubleLock, req.Proc, req.Obj)
	}
	for _, q := range st.queue {
		if q.Proc == req.Proc {
			return nil, fmt.Errorf("%w: proc %d obj %d (queued)", ErrDoubleLock, req.Proc, req.Obj)
		}
	}
	// Grant immediately when compatible AND nothing is queued ahead
	// (queued writers block later readers, preventing writer starvation).
	if len(st.queue) == 0 && m.compatible(st, req.Mode) {
		m.grants = append(m.grants[:0], m.grant(st, req))
		return m.grants, nil
	}
	st.queue = append(st.queue, req)
	return nil, nil
}

func (m *Manager) compatible(st *lockState, mode Mode) bool {
	if len(st.holders) == 0 {
		return true
	}
	return st.mode == Read && mode == Read
}

// grant makes req's process a holder and returns its grant.
func (m *Manager) grant(st *lockState, req Request) Grant {
	if i, held := slices.BinarySearch(st.holders, req.Proc); !held {
		st.holders = slices.Insert(st.holders, i, req.Proc)
	}
	st.mode = req.Mode
	return Grant{Proc: req.Proc, Obj: req.Obj, Mode: req.Mode, Owner: st.owner, Version: st.version}
}

// Release returns proc's lock on obj. If the holder wrote the object
// (dirty), proc becomes the owner of the freshest copy at newVersion.
// Release returns the grants unblocked by the release: either the longest
// prefix of queued readers or a single queued writer, in the manager's
// scratch.
func (m *Manager) Release(proc int, obj store.ID, dirty bool, newVersion int64) ([]Grant, error) {
	st, ok := m.locks[obj]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNotManaged, obj)
	}
	i, held := slices.BinarySearch(st.holders, proc)
	if !held {
		return nil, fmt.Errorf("%w: proc %d obj %d", ErrNotHeld, proc, obj)
	}
	if dirty {
		if st.mode != Write {
			return nil, fmt.Errorf("%w: dirty release of %s lock", ErrWrongRelease, st.mode)
		}
		st.owner = proc
		if newVersion > st.version {
			st.version = newVersion
		}
	}
	st.holders = slices.Delete(st.holders, i, i+1)
	if len(st.holders) > 0 {
		return nil, nil // shared readers remain; nothing unblocks
	}
	return m.drainQueue(st, m.grants[:0]), nil
}

// drainQueue appends to grants the grants for the longest compatible prefix
// of st's queue: either a run of readers or a single writer. The queue
// keeps its backing array.
func (m *Manager) drainQueue(st *lockState, grants []Grant) []Grant {
	for len(st.queue) > 0 {
		head := st.queue[0]
		if !m.compatible(st, head.Mode) {
			break
		}
		st.queue = slices.Delete(st.queue, 0, 1)
		grants = append(grants, m.grant(st, head))
		if head.Mode == Write {
			break // exclusive: grant exactly one writer
		}
	}
	m.grants = grants
	return grants
}

// PurgeProc removes every trace of a crashed process from the manager: its
// held locks are force-released (non-dirty — its unreleased writes are lost,
// fail-stop) and its queued requests dropped. Grants unblocked by the purge
// are returned in ascending object order, so recovery is deterministic, in
// the manager's scratch.
func (m *Manager) PurgeProc(proc int) []Grant {
	ids := make([]store.ID, 0, len(m.locks))
	for id := range m.locks {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	out := m.grants[:0]
	for _, id := range ids {
		st := m.locks[id]
		i, held := slices.BinarySearch(st.holders, proc)
		if held {
			st.holders = slices.Delete(st.holders, i, i+1)
		}
		if len(st.queue) > 0 {
			q := st.queue[:0]
			for _, r := range st.queue {
				if r.Proc != proc {
					q = append(q, r)
				}
			}
			st.queue = q
		}
		if held && len(st.holders) == 0 {
			out = m.drainQueue(st, out)
		}
	}
	return out
}

// Adopt registers fresh lock state for objects not already managed here.
// Crash failover uses it: the successor of a dead manager adopts its shard.
// The dead manager's holder/queue/ownership state is lost with it, so
// adopted locks start free with owner (the adopting node) at version 0 —
// grantees fall back to their local replicas, and releases of locks granted
// by the dead manager must be tolerated as no-ops (see ec).
func (m *Manager) Adopt(objs []store.ID, owner int) {
	for _, obj := range objs {
		if _, ok := m.locks[obj]; ok {
			continue
		}
		st := &newStates(1)[0]
		st.owner = owner
		m.locks[obj] = st
	}
}

// RestoreOwner installs a replicated ownership record on a managed object:
// owner holds the freshest copy at version. Quorum failover uses it — the
// adopter of a dead manager's shard reconstructs each object's (owner,
// version) from the majority-replicated records instead of starting at
// version 0. Version-gated (an older record never overwrites a newer one)
// and a no-op for objects not managed here; reports whether it advanced the
// record.
func (m *Manager) RestoreOwner(obj store.ID, owner int, version int64) bool {
	st, ok := m.locks[obj]
	if !ok || version <= st.version {
		return false
	}
	st.owner = owner
	st.version = version
	return true
}

// Reissue returns a fresh grant for a lock proc already holds — the
// idempotent answer to a retransmitted request whose original grant may have
// been lost. ok is false if proc does not hold the lock.
func (m *Manager) Reissue(proc int, obj store.ID) (Grant, bool) {
	st, ok := m.locks[obj]
	if !ok || !slices.Contains(st.holders, proc) {
		return Grant{}, false
	}
	return Grant{Proc: proc, Obj: obj, Mode: st.mode, Owner: st.owner, Version: st.version}, true
}

// Holders returns, ascending, the processes currently holding obj's lock.
func (m *Manager) Holders(obj store.ID) ([]int, Mode, error) {
	st, ok := m.locks[obj]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %d", ErrNotManaged, obj)
	}
	return append([]int(nil), st.holders...), st.mode, nil
}

// QueueLen returns the number of requests waiting on obj.
func (m *Manager) QueueLen(obj store.ID) int {
	st, ok := m.locks[obj]
	if !ok {
		return 0
	}
	return len(st.queue)
}

// ManagerFor implements the paper's static even distribution: the lock for
// object obj lives on node int(obj) % n.
func ManagerFor(obj store.ID, n int) int {
	if n <= 0 {
		return 0
	}
	return int(uint32(obj) % uint32(n))
}

// Partition returns, for each of n nodes, the objects whose lock manager
// lives there under the static even distribution.
func Partition(objs []store.ID, n int) [][]store.ID {
	out := make([][]store.ID, n)
	for _, obj := range objs {
		h := ManagerFor(obj, n)
		out[h] = append(out[h], obj)
	}
	return out
}
