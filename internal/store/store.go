// Package store holds a process's local copies of shared objects. Every
// S-DSO process keeps a full replica of the shared environment (the paper
// assumes "physical distribution of the shared environment across all
// interacting processes"); consistency protocols decide when replicas are
// reconciled. The store tracks a version per object so pull-based protocols
// (entry consistency) can tell stale copies from fresh ones.
//
// Representation. A replica is a Baseline — the registered initial states,
// immutable, one flat byte array — under a copy-on-write overlay: an object
// gets a record of its own the first time it is mutated here, and until then
// reads fall through to the baseline at version 0, writer unknown. A replica
// costs an index word per object plus what was written to it, and the
// replicas of one process share one baseline through RegisterAll. The bytes
// of every state installed here — written, patched, set, merged, restored,
// or reconstructed by the runtime above — are carved by Alloc from small
// fixed-size chunks, many states to one heap object; a chunk is never
// reused and is the garbage collector's once no state in it is live.
//
// Ownership. A state slice, once published — registered, written, applied
// or adopted — is never modified in place: every change installs a fresh
// slice. Holders of a published state (View callers, the runtime's delta
// tables and shadows, buffered replacement diffs, every replica over a
// shared baseline) may therefore share it for as long as they like; what
// they may not do is write through it. See DESIGN.md, "Ownership and
// memory".
package store

import (
	"bytes"
	"fmt"
	"math"
	"slices"

	"sdso/internal/diff"
)

// ID names a shared object. IDs are small dense integers (the game numbers
// its blocks 0..Width*Height-1): the store indexes by ID directly, so its
// memory is O(objects + highest ID), and IDs above MaxID are refused.
type ID uint32

// MaxID is the highest object ID a store accepts. It matches the 20 ID bits
// of the runtime's request/reply correlation stamps, and it bounds the
// index a hostile snapshot can make Merge allocate (4 MB).
const MaxID ID = 1<<20 - 1

// Baseline is a set of registered initial states: every state in one flat
// byte array, found by object ID. It is built by Register and read-only
// from then on — once handed to a store (RegisterAll) nothing writes it
// again, so any number of stores and goroutines may share one.
type Baseline struct {
	data []byte
	at   []span // indexed by ID
	n    int    // registered objects
}

// span locates one state in Baseline.data. The offset is stored plus one so
// the zero value means "not registered".
type span struct{ off1, n uint32 }

// Register adds an object with its initial state, copied. Registering an
// existing ID or one above MaxID is an error.
func (b *Baseline) Register(id ID, initial []byte) error {
	_, dup := b.view(id)
	switch {
	case dup:
		return fmt.Errorf("store: object %d already registered", id)
	case id > MaxID:
		return fmt.Errorf("store: object ID %d exceeds the maximum %d", id, MaxID)
	case uint64(len(b.data))+uint64(len(initial)) >= math.MaxUint32:
		return fmt.Errorf("store: object %d: initial states exceed %d bytes", id, uint32(math.MaxUint32))
	}
	if int(id) >= len(b.at) {
		b.at = append(b.at, make([]span, int(id)+1-len(b.at))...)
	}
	b.at[id] = span{off1: uint32(len(b.data)) + 1, n: uint32(len(initial))}
	// Growing data leaves the array earlier views alias untouched.
	b.data = append(b.data, initial...)
	b.n++
	return nil
}

// Len returns the number of registered objects.
func (b *Baseline) Len() int { return b.n }

// view returns id's initial state, its capacity clipped so an append
// through it cannot reach a neighbour, and whether id is registered.
func (b *Baseline) view(id ID) ([]byte, bool) {
	if int(id) >= len(b.at) || b.at[id].off1 == 0 {
		return nil, false
	}
	lo, hi := b.at[id].off1-1, b.at[id].off1-1+b.at[id].n
	return b.data[lo:hi:hi], true
}

// object is one shared object replica.
type object struct {
	data    []byte
	version int64
	// writer is the process ID whose write produced this state, or -1
	// when unknown (initial state, snapshot restore, direct SetState).
	// Push protocols use it to arbitrate same-version data races by PID.
	writer int32
}

// recChunk is how many overlay records one chunk holds (2.5 KB): a replica
// that was written to at all has usually been written a few dozen times.
const recChunk = 64

// Store is a set of shared-object replicas, made by New. It is not safe for
// concurrent use; callers running on real (non-simulated) transports must
// serialize access externally.
type Store struct {
	// base holds the registered initial states. owned means no other store
	// reads it, so Register may append to it; a shared one is copied first.
	base  *Baseline
	owned bool

	// The overlay: a record for every object mutated here or arrived
	// without a baseline (extra counts the latter), nrecs in all, in chunks
	// of recChunk so that growing copies nothing. idx maps an ID to one plus
	// its record's position, zero or out of range meaning none.
	idx   []uint32
	recs  [][]object
	nrecs int
	extra int

	// free is the uncarved rest of the arena's current chunk (Alloc).
	free []byte
}

// noBaseline is what every store stands on before a registration: never written.
var noBaseline = new(Baseline)

// New returns an empty store.
func New() *Store { return &Store{base: noBaseline} }

// get returns id's replica: its overlay record, else its registered initial
// state at version 0, writer unknown.
func (s *Store) get(id ID) (object, bool) {
	if int(id) < len(s.idx) {
		if k := s.idx[id]; k != 0 {
			return s.recs[(k-1)/recChunk][(k-1)%recChunk], true
		}
	}
	data, ok := s.base.view(id)
	return object{data: data, writer: -1}, ok
}

// lookup is get with an error naming the unregistered ID.
func (s *Store) lookup(id ID) (object, error) {
	o, ok := s.get(id)
	if !ok {
		return o, fmt.Errorf("store: object %d not registered", id)
	}
	return o, nil
}

// put installs o as id's replica, giving id an overlay record on its first
// mutation.
func (s *Store) put(id ID, o object) {
	if int(id) >= len(s.idx) {
		// Sized once for the registered world.
		s.idx = append(s.idx, make([]uint32, max(int(id)+1, len(s.base.at))-len(s.idx))...)
	}
	k := s.idx[id]
	if k == 0 {
		if s.nrecs%recChunk == 0 {
			s.recs = append(s.recs, make([]object, recChunk))
		}
		s.nrecs++
		k = uint32(s.nrecs)
		s.idx[id] = k
	}
	s.recs[(k-1)/recChunk][(k-1)%recChunk] = o
}

// arenaChunk is the size of one arena chunk. A live state pins its whole
// chunk, so a replica retains at most live objects × arenaChunk state bytes
// (DESIGN.md, "Ownership and memory", has the measurements behind 512).
const arenaChunk = 512

// Alloc returns n zeroed bytes for a state about to be published, carved
// from the store's arena: a view with cap == len, so an append through it
// reallocates and never reaches the neighbouring state. Every state the
// store installs comes from here, and so do the ones the runtime
// reconstructs and hands to AdoptStateFrom. A state above a quarter chunk
// (or an empty one) is a plain allocation.
func (s *Store) Alloc(n int) []byte {
	if n == 0 || n > arenaChunk/4 {
		return make([]byte, n)
	}
	if n > len(s.free) {
		s.free = make([]byte, arenaChunk)
	}
	b := s.free[:n:n]
	s.free = s.free[n:]
	return b
}

// copyOf returns a carved copy of state.
func (s *Store) copyOf(state []byte) []byte {
	return append(s.Alloc(len(state))[:0], state...)
}

// extent returns one past the highest ID that may be registered.
func (s *Store) extent() int { return max(len(s.idx), len(s.base.at)) }

// Register adds a shared object with its initial state. Registering an
// existing ID is an error: the paper's share() call registers each object
// exactly once at program initialization. IDs above MaxID are refused. The
// initial bytes are copied into the store's baseline; no record is created.
func (s *Store) Register(id ID, initial []byte) error {
	if s.Has(id) {
		return fmt.Errorf("store: object %d already registered", id)
	}
	if !s.owned {
		b := *s.base
		b.data, b.at = slices.Clone(b.data), slices.Clone(b.at)
		s.base, s.owned = &b, true
	}
	return s.base.Register(id, initial)
}

// RegisterAll registers every object of b at once, by reference: the store
// reads b from now on and never writes it, so the replicas of one process
// may all stand on the same baseline. It is the whole of registration —
// the store must be empty — and b must not be registered into afterwards.
func (s *Store) RegisterAll(b *Baseline) error {
	if s.Len() > 0 {
		return fmt.Errorf("store: RegisterAll on a store that already holds %d objects", s.Len())
	}
	s.base, s.owned = b, false
	return nil
}

// Initial returns the state id was registered with, or nil for an object
// that was not registered here (it arrived by Merge or Restore). The slice
// is published: the caller must not modify it.
func (s *Store) Initial(id ID) []byte {
	b, _ := s.base.view(id)
	return b
}

// add installs an object that arrives without a baseline (Merge and Restore
// of an ID never registered here), holding a copy of state, writer unknown.
func (s *Store) add(id ID, state []byte, version int64) {
	s.put(id, object{data: s.copyOf(state), version: version, writer: -1})
	s.extra++
}

// Len returns the number of registered objects.
func (s *Store) Len() int { return s.base.Len() + s.extra }

// Materialized returns how many objects have a record of their own: those
// mutated here since registration or arrived without a baseline. The other
// Len − Materialized still read the initial state.
func (s *Store) Materialized() int { return s.nrecs }

// Has reports whether id is registered.
func (s *Store) Has(id ID) bool {
	_, ok := s.get(id)
	return ok
}

// IDs returns all registered object IDs in ascending order.
func (s *Store) IDs() []ID {
	out := make([]ID, 0, s.Len())
	for id := 0; id < s.extent(); id++ {
		if s.Has(ID(id)) {
			out = append(out, ID(id))
		}
	}
	return out
}

// Get returns a copy of the object's current state.
func (s *Store) Get(id ID) ([]byte, error) {
	o, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(o.data))
	copy(out, o.data)
	return out, nil
}

// View returns the object's current state without copying. The caller must
// not modify the returned slice. It is a published state: later writes
// replace the object's slice and leave this one intact, so a holder may
// keep it as a snapshot of the object at the time of the call.
func (s *Store) View(id ID) ([]byte, error) {
	o, err := s.lookup(id)
	return o.data, err
}

// Version returns the object's version counter.
func (s *Store) Version(id ID) (int64, error) {
	o, err := s.lookup(id)
	return o.version, err
}

// Update overwrites the object's state with data, increments its version,
// and returns the diff from the previous state. An update that changes
// nothing returns an empty diff and does not bump the version. The writer
// is recorded as unknown; use UpdateBy to attribute the write.
func (s *Store) Update(id ID, data []byte) (diff.Diff, error) {
	return s.UpdateBy(id, data, -1)
}

// UpdateBy is Update attributed to a writing process: on a state change the
// object's writer is set to writer, so same-version data races can be
// arbitrated by PID.
func (s *Store) UpdateBy(id ID, data []byte, writer int) (diff.Diff, error) {
	old, err := s.View(id)
	if err != nil {
		return diff.Diff{}, err
	}
	_, _, _, err = s.WriteBy(id, data, writer)
	return diff.Compute(old, data), err
}

// WriteBy is UpdateBy for a caller that wants the outcome rather than the
// diff: it returns the object's published state and version after the
// write, and whether the write changed anything (a write of identical
// bytes installs nothing and bumps nothing). It computes no diff.
func (s *Store) WriteBy(id ID, data []byte, writer int) (state []byte, version int64, changed bool, err error) {
	o, err := s.lookup(id)
	if err != nil || bytes.Equal(o.data, data) {
		return o.data, o.version, false, err
	}
	o = object{data: s.copyOf(data), version: o.version + 1, writer: int32(writer)}
	s.put(id, o)
	return o.data, o.version, true, nil
}

// WriterOf returns the process ID recorded for the object's current state,
// or -1 when the writer is unknown.
func (s *Store) WriterOf(id ID) (int, error) {
	o, err := s.lookup(id)
	if err != nil {
		return -1, err
	}
	return int(o.writer), nil
}

// ApplyDiff patches the object with a remotely produced diff and sets its
// version to the given remote version if that is newer. The recorded writer
// stays; use ApplyDiffFrom to attribute the change.
func (s *Store) ApplyDiff(id ID, d diff.Diff, version int64) error {
	o, _ := s.get(id) // an unregistered id is ApplyDiffFrom's to report
	return s.ApplyDiffFrom(id, d, version, int(o.writer))
}

// ApplyDiffFrom is ApplyDiff attributed to the originating writer. The
// version and writer are adopted when version is at least the local one —
// the >= (rather than >) lets the caller install a same-version state after
// it has already decided the race by PID.
func (s *Store) ApplyDiffFrom(id ID, d diff.Diff, version int64, writer int) error {
	o, err := s.lookup(id)
	if err != nil {
		return err
	}
	// Carve what is held, not what d claims: a run diff keeps the length,
	// a well-formed replacement carries its own.
	n := len(o.data)
	if state, ok := d.Replacement(); ok {
		n = len(state)
	}
	if o.data, err = diff.ApplyTo(s.Alloc(n), o.data, d); err != nil {
		return fmt.Errorf("object %d: %w", id, err)
	}
	if version >= o.version {
		o.version, o.writer = version, int32(writer)
	}
	s.put(id, o)
	return nil
}

// SetState replaces the object's state and version outright (used when a
// pull-based protocol fetches a whole fresh copy). The bytes are copied.
func (s *Store) SetState(id ID, data []byte, version int64) error {
	return s.AdoptStateFrom(id, s.copyOf(data), version, -1)
}

// AdoptStateFrom replaces the object's state and version outright, records
// the originating writer, and takes data without copying it: the caller
// publishes the slice and, like every other holder, never modifies it
// again. Delta-encoded exchanges use it to let the store and the
// per-sender shadow share one reconstructed state while preserving the
// writer attribution that same-version PID arbitration depends on.
func (s *Store) AdoptStateFrom(id ID, data []byte, version int64, writer int) error {
	if _, err := s.lookup(id); err != nil {
		return err
	}
	s.put(id, object{data: data, version: version, writer: int32(writer)})
	return nil
}

// Clone returns an independent copy of the store: the overlay is copied,
// the baseline and the published state bytes are shared. Sharing freezes
// the baseline — either store's next Register copies it first.
func (s *Store) Clone() *Store {
	s.owned = false
	c := &Store{base: s.base, idx: slices.Clone(s.idx), recs: make([][]object, len(s.recs)), nrecs: s.nrecs, extra: s.extra}
	for i, chunk := range s.recs {
		c.recs[i] = slices.Clone(chunk)
	}
	return c
}

// Equal reports whether two stores hold identical object states (versions
// are ignored: different protocols bump versions differently while agreeing
// on content).
func (s *Store) Equal(other *Store) bool {
	if s.Len() != other.Len() {
		return false
	}
	for id := 0; id < s.extent(); id++ {
		o, ok := s.get(ID(id))
		if !ok {
			continue
		}
		oo, ok := other.get(ID(id))
		if !ok || !bytes.Equal(o.data, oo.data) {
			return false
		}
	}
	return true
}
