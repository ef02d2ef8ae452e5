package store

// The eager Store this package shipped before the copy-on-write overlay —
// one object record per registered ID, carved from doubling chunks — moved
// here verbatim (names prefixed ref, Reserve dropped with the API) as the
// differential oracle: testStoreConformance drives it and the overlay store
// through the same operations and demands identical observations. One line
// differs: arenaCopy sizes a new chunk to fit the state, where the shipped
// one panicked on a 65..1024-byte state met while its chunks were still
// smaller — the first thing the conformance body found.

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"sdso/internal/diff"
)

// refObject is one shared object replica.
type refObject struct {
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
	refFirstObjectChunk = 16
	refMaxObjectChunk   = 204
	refFirstByteChunk   = 64
	refMaxByteChunk     = 4096
)

// refStore is a set of shared-object replicas. It is not safe for concurrent
// use; callers running on real (non-simulated) transports must serialize
// access externally.
type refStore struct {
	byID []*refObject // indexed by ID; nil = not registered
	n    int          // registered objects

	// Registration arenas: the unused tail of the current chunk of each
	// kind, and the size the chunk was allocated with.
	objs      []refObject
	objChunk  int
	bytes     []byte
	byteChunk int
}

// newRefStore returns an empty store.
func newRefStore() *refStore { return &refStore{} }

// lookup returns id's replica, or an error naming the unregistered ID.
func (s *refStore) lookup(id ID) (*refObject, error) {
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
func (s *refStore) Register(id ID, initial []byte) error {
	if s.Has(id) {
		return fmt.Errorf("store: object %d already registered", id)
	}
	return s.register(id, initial, 0)
}

// register installs a new replica holding a copy of state, writer unknown.
func (s *refStore) register(id ID, state []byte, version int64) error {
	if id > MaxID {
		return fmt.Errorf("store: object ID %d exceeds the maximum %d", id, MaxID)
	}
	if int(id) >= len(s.byID) {
		s.byID = append(s.byID, make([]*refObject, int(id)+1-len(s.byID))...)
	}
	if len(s.objs) == 0 {
		s.objChunk = min(max(2*s.objChunk, refFirstObjectChunk), refMaxObjectChunk)
		s.objs = make([]refObject, s.objChunk)
	}
	o := &s.objs[0]
	s.objs = s.objs[1:]
	*o = refObject{data: s.arenaCopy(state), version: version, writer: -1}
	s.byID[id] = o
	s.n++
	return nil
}

// arenaCopy returns a copy of b carved from the byte arena, its capacity
// clipped so an append through it cannot reach a neighbour. States too
// large to share a chunk get their own allocation.
func (s *refStore) arenaCopy(b []byte) []byte {
	if len(b) > refMaxByteChunk/4 {
		return bytes.Clone(b)
	}
	if len(b) > len(s.bytes) {
		s.byteChunk = min(max(2*s.byteChunk, refFirstByteChunk), refMaxByteChunk)
		for s.byteChunk < len(b) { // at most a quarter of the cap, so still under it
			s.byteChunk *= 2
		}
		s.bytes = make([]byte, s.byteChunk)
	}
	out := s.bytes[:len(b):len(b)]
	s.bytes = s.bytes[len(b):]
	copy(out, b)
	return out
}

// Len returns the number of registered objects.
func (s *refStore) Len() int { return s.n }

// Has reports whether id is registered.
func (s *refStore) Has(id ID) bool {
	return int(id) < len(s.byID) && s.byID[id] != nil
}

// IDs returns all registered object IDs in ascending order.
func (s *refStore) IDs() []ID {
	out := make([]ID, 0, s.n)
	for id, o := range s.byID {
		if o != nil {
			out = append(out, ID(id))
		}
	}
	return out
}

// Get returns a copy of the object's current state.
func (s *refStore) Get(id ID) ([]byte, error) {
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
func (s *refStore) View(id ID) ([]byte, error) {
	o, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	return o.data, nil
}

// Version returns the object's version counter.
func (s *refStore) Version(id ID) (int64, error) {
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
func (s *refStore) Update(id ID, data []byte) (diff.Diff, error) {
	return s.UpdateBy(id, data, -1)
}

// UpdateBy is Update attributed to a writing process: on a state change the
// object's writer is set to writer, so same-version data races can be
// arbitrated by PID.
func (s *refStore) UpdateBy(id ID, data []byte, writer int) (diff.Diff, error) {
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
func (s *refStore) WriterOf(id ID) (int, error) {
	o, err := s.lookup(id)
	if err != nil {
		return -1, err
	}
	return int(o.writer), nil
}

// ApplyDiff patches the object with a remotely produced diff and sets its
// version to the given remote version if that is newer. The writer is
// recorded as unknown; use ApplyDiffFrom to attribute the change.
func (s *refStore) ApplyDiff(id ID, d diff.Diff, version int64) error {
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
func (s *refStore) ApplyDiffFrom(id ID, d diff.Diff, version int64, writer int) error {
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
func (s *refStore) SetState(id ID, data []byte, version int64) error {
	return s.AdoptStateFrom(id, bytes.Clone(data), version, -1)
}

// AdoptStateFrom replaces the object's state and version outright, records
// the originating writer, and takes data without copying it: the caller
// publishes the slice and, like every other holder, never modifies it
// again. Delta-encoded exchanges use it to let the store and the
// per-sender shadow share one reconstructed state while preserving the
// writer attribution that same-version PID arbitration depends on.
func (s *refStore) AdoptStateFrom(id ID, data []byte, version int64, writer int) error {
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
func (s *refStore) Clone() *refStore {
	c := newRefStore()
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
func (s *refStore) Equal(other *refStore) bool {
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

// Snapshot serializes the whole store — every object's ID, version, and
// state, in ascending ID order — stamped with floor, the taker's logical
// clock at checkpoint time. The joiner uses the floor to know which ticks
// the snapshot already covers; everything after flows through the live
// exchange machinery once the joiner is readmitted.
func (s *refStore) Snapshot(floor int64) []byte {
	size := snapshotHeaderSize
	for _, o := range s.byID {
		if o != nil {
			size += snapshotRecordSize + len(o.data)
		}
	}
	buf := make([]byte, size)
	binary.BigEndian.PutUint64(buf, uint64(floor))
	binary.BigEndian.PutUint32(buf[8:], uint32(s.n))
	off := snapshotHeaderSize
	for id, o := range s.byID {
		if o == nil {
			continue
		}
		binary.BigEndian.PutUint32(buf[off:], uint32(id))
		binary.BigEndian.PutUint64(buf[off+4:], uint64(o.version))
		binary.BigEndian.PutUint32(buf[off+12:], uint32(len(o.data)))
		off += snapshotRecordSize
		copy(buf[off:], o.data)
		off += len(o.data)
	}
	return buf
}

// Merge applies a snapshot version-gated: an object whose snapshot version
// exceeds the local version adopts the snapshot state; unknown objects are
// registered at their snapshot version. It returns the number of objects
// adopted and the snapshot's clock floor. Merging snapshots from several
// peers in any order converges to the element-wise highest-version state.
func (s *refStore) Merge(snap []byte) (adopted int, floor int64, err error) {
	floor, err = decodeSnapshot(snap, func(id ID, version int64, state []byte) {
		o, lerr := s.lookup(id)
		if lerr != nil {
			_ = s.register(id, state, version) // cannot fail: decodeSnapshot bounds the ID
			adopted++
			return
		}
		if version <= o.version {
			return
		}
		o.data = bytes.Clone(state)
		o.version = version
		o.writer = -1
		adopted++
	})
	if err != nil {
		return 0, 0, err
	}
	return adopted, floor, nil
}

// Restore replaces the store's entire contents with the snapshot,
// discarding whatever was registered before, and returns the snapshot's
// clock floor. A restarted process with no surviving local state uses
// Restore; one that rebuilt its initial environment and wants the freshest
// of both uses Merge.
func (s *refStore) Restore(snap []byte) (floor int64, err error) {
	fresh := newRefStore()
	floor, err = decodeSnapshot(snap, func(id ID, version int64, state []byte) {
		if o, lerr := fresh.lookup(id); lerr == nil {
			// A repeated ID: the later record wins, as it always has.
			o.data, o.version = bytes.Clone(state), version
			return
		}
		_ = fresh.register(id, state, version) // cannot fail: decodeSnapshot bounds the ID
	})
	if err != nil {
		return 0, err
	}
	*s = *fresh
	return floor, nil
}
