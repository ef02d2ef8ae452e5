// Package store holds a process's local copies of shared objects. Every
// S-DSO process keeps a full replica of the shared environment (the paper
// assumes "physical distribution of the shared environment across all
// interacting processes"); consistency protocols decide when replicas are
// reconciled. The store tracks a version per object so pull-based protocols
// (entry consistency) can tell stale copies from fresh ones.
//
// Ownership. A state slice, once published — registered, written, applied
// or adopted — is never modified in place: every change installs a fresh
// slice. Holders of a published state (View callers, the runtime's delta
// baseline and shadows, buffered replacement diffs) may therefore share it
// for as long as they like; what they may not do is write through it. See
// DESIGN.md, "Ownership and memory".
package store

import (
	"bytes"
	"fmt"
	"slices"

	"sdso/internal/diff"
)

// ID names a shared object. IDs are small dense integers (the game numbers
// its blocks 0..Width*Height-1): the store indexes by ID directly, so its
// memory is O(objects + highest ID), and IDs above MaxID are refused.
type ID uint32

// MaxID is the highest object ID a store accepts. It matches the 20 ID bits
// of the runtime's request/reply correlation stamps, and it bounds the
// index a hostile snapshot can make Merge allocate (8 MB).
const MaxID ID = 1<<20 - 1

// object is one shared object replica.
type object struct {
	data    []byte
	version int64
	// writer is the process ID whose write produced this state, or -1
	// when unknown (initial state, snapshot restore, direct SetState).
	// Push protocols use it to arbitrate same-version data races by PID.
	writer int32
}

// Registration carves object records and initial state bytes out of chunks
// that double up to a cap, so a two-object store stays small and a world of
// hundreds of blocks costs a dozen allocations instead of two per block.
// The object cap keeps a chunk — 40-byte records plus the allocator's
// 8-byte header on pointerful objects over 512 B — inside the 8 KB size
// class; byte chunks are powers of two, which are size classes themselves.
const (
	firstObjectChunk = 16
	maxObjectChunk   = 204
	firstByteChunk   = 64
	maxByteChunk     = 4096
)

// Store is a set of shared-object replicas. It is not safe for concurrent
// use; callers running on real (non-simulated) transports must serialize
// access externally.
type Store struct {
	byID []*object // indexed by ID; nil = not registered
	n    int       // registered objects

	// Registration arenas: the unused tail of the current chunk of each
	// kind, and the size the chunk was allocated with.
	objs      []object
	objChunk  int
	bytes     []byte
	byteChunk int
}

// New returns an empty store.
func New() *Store { return &Store{} }

// Reserve sizes the index for a world of objects IDs (0..objects-1) about
// to be registered, so registering them one by one does not regrow it —
// past a few hundred elements append grows by a quarter at a time and a
// 3 072-object world allocates five times its final index. Optional, and
// only a hint: IDs at or above objects still register.
func (s *Store) Reserve(objects int) {
	if objects = min(objects, int(MaxID)+1); objects > cap(s.byID) {
		s.byID = slices.Grow(s.byID, objects-len(s.byID))
	}
}

// lookup returns id's replica, or an error naming the unregistered ID.
func (s *Store) lookup(id ID) (*object, error) {
	if int(id) < len(s.byID) {
		if o := s.byID[id]; o != nil {
			return o, nil
		}
	}
	return nil, fmt.Errorf("store: object %d not registered", id)
}

// Register adds a shared object with its initial state. Registering an
// existing ID is an error: the paper's share() call registers each object
// exactly once at program initialization. IDs above MaxID are refused. The
// initial bytes are copied.
func (s *Store) Register(id ID, initial []byte) error {
	if s.Has(id) {
		return fmt.Errorf("store: object %d already registered", id)
	}
	return s.register(id, initial, 0)
}

// register installs a new replica holding a copy of state, writer unknown.
func (s *Store) register(id ID, state []byte, version int64) error {
	if id > MaxID {
		return fmt.Errorf("store: object ID %d exceeds the maximum %d", id, MaxID)
	}
	if int(id) >= len(s.byID) {
		s.byID = append(s.byID, make([]*object, int(id)+1-len(s.byID))...)
	}
	if len(s.objs) == 0 {
		s.objChunk = min(max(2*s.objChunk, firstObjectChunk), maxObjectChunk)
		s.objs = make([]object, s.objChunk)
	}
	o := &s.objs[0]
	s.objs = s.objs[1:]
	*o = object{data: s.arenaCopy(state), version: version, writer: -1}
	s.byID[id] = o
	s.n++
	return nil
}

// arenaCopy returns a copy of b carved from the byte arena, its capacity
// clipped so an append through it cannot reach a neighbour. States too
// large to share a chunk get their own allocation.
func (s *Store) arenaCopy(b []byte) []byte {
	if len(b) > maxByteChunk/4 {
		return bytes.Clone(b)
	}
	if len(b) > len(s.bytes) {
		s.byteChunk = min(max(2*s.byteChunk, firstByteChunk), maxByteChunk)
		s.bytes = make([]byte, s.byteChunk)
	}
	out := s.bytes[:len(b):len(b)]
	s.bytes = s.bytes[len(b):]
	copy(out, b)
	return out
}

// Len returns the number of registered objects.
func (s *Store) Len() int { return s.n }

// Has reports whether id is registered.
func (s *Store) Has(id ID) bool {
	return int(id) < len(s.byID) && s.byID[id] != nil
}

// IDs returns all registered object IDs in ascending order.
func (s *Store) IDs() []ID {
	out := make([]ID, 0, s.n)
	for id, o := range s.byID {
		if o != nil {
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
	if err != nil {
		return nil, err
	}
	return o.data, nil
}

// Version returns the object's version counter.
func (s *Store) Version(id ID) (int64, error) {
	o, err := s.lookup(id)
	if err != nil {
		return 0, err
	}
	return o.version, nil
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
	o, err := s.lookup(id)
	if err != nil {
		return diff.Diff{}, err
	}
	d := diff.Compute(o.data, data)
	if d.Empty() {
		return d, nil
	}
	o.data = bytes.Clone(data)
	o.version++
	o.writer = int32(writer)
	return d, nil
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
// version to the given remote version if that is newer. The writer is
// recorded as unknown; use ApplyDiffFrom to attribute the change.
func (s *Store) ApplyDiff(id ID, d diff.Diff, version int64) error {
	o, err := s.lookup(id)
	if err != nil {
		return err
	}
	next, err := diff.Apply(o.data, d)
	if err != nil {
		return fmt.Errorf("object %d: %w", id, err)
	}
	o.data = next
	if version > o.version {
		o.version = version
	}
	return nil
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
	next, err := diff.Apply(o.data, d)
	if err != nil {
		return fmt.Errorf("object %d: %w", id, err)
	}
	o.data = next
	if version >= o.version {
		o.version = version
		o.writer = int32(writer)
	}
	return nil
}

// SetState replaces the object's state and version outright (used when a
// pull-based protocol fetches a whole fresh copy). The bytes are copied.
func (s *Store) SetState(id ID, data []byte, version int64) error {
	return s.AdoptStateFrom(id, bytes.Clone(data), version, -1)
}

// AdoptStateFrom replaces the object's state and version outright, records
// the originating writer, and takes data without copying it: the caller
// publishes the slice and, like every other holder, never modifies it
// again. Delta-encoded exchanges use it to let the store and the
// per-sender shadow share one reconstructed state while preserving the
// writer attribution that same-version PID arbitration depends on.
func (s *Store) AdoptStateFrom(id ID, data []byte, version int64, writer int) error {
	o, err := s.lookup(id)
	if err != nil {
		return err
	}
	o.data = data
	o.version = version
	o.writer = int32(writer)
	return nil
}

// Clone returns a deep copy of the store (used to seed every process with
// the same initial shared environment).
func (s *Store) Clone() *Store {
	c := New()
	for id, o := range s.byID {
		if o == nil {
			continue
		}
		_ = c.register(ID(id), o.data, o.version) // cannot fail: id was accepted once
		c.byID[id].writer = o.writer
	}
	return c
}

// Equal reports whether two stores hold identical object states (versions
// are ignored: different protocols bump versions differently while agreeing
// on content).
func (s *Store) Equal(other *Store) bool {
	if s.n != other.n {
		return false
	}
	for id, o := range s.byID {
		if o == nil {
			continue
		}
		oo, err := other.lookup(ID(id))
		if err != nil || !bytes.Equal(o.data, oo.data) {
			return false
		}
	}
	return true
}
