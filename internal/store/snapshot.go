// Checkpoint support for peer rejoin: a snapshot serializes every object
// replica (ID, version, state) together with the logical-clock floor at
// which it was taken. A restarted or late-joining process asks each live
// peer for its snapshot and Merges them all version-gated, so the union
// over responders captures every surviving write — the same
// highest-version-wins rule that already makes diff application
// commutative across exchange orderings.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Snapshot codec limits, preventing hostile checkpoints from exhausting
// memory before validation.
const (
	// MaxSnapshotObjects bounds the object count in a decoded snapshot.
	MaxSnapshotObjects = 1 << 20
	// MaxSnapshotObjectBytes bounds a single object's state size.
	MaxSnapshotObjectBytes = 16 << 20
)

// ErrBadSnapshot reports a snapshot that fails structural validation.
var ErrBadSnapshot = errors.New("store: malformed snapshot")

// snapshotHeaderSize is floor(8) + count(4); each record adds
// id(4) + version(8) + len(4) + state bytes.
const (
	snapshotHeaderSize = 8 + 4
	snapshotRecordSize = 4 + 8 + 4
)

// Snapshot serializes the whole store — every object's ID, version, and
// state, in ascending ID order — stamped with floor, the taker's logical
// clock at checkpoint time. The joiner uses the floor to know which ticks
// the snapshot already covers; everything after flows through the live
// exchange machinery once the joiner is readmitted.
func (s *Store) Snapshot(floor int64) []byte {
	size := snapshotHeaderSize
	for id := 0; id < s.extent(); id++ {
		if o, ok := s.get(ID(id)); ok {
			size += snapshotRecordSize + len(o.data)
		}
	}
	buf := make([]byte, size)
	binary.BigEndian.PutUint64(buf, uint64(floor))
	binary.BigEndian.PutUint32(buf[8:], uint32(s.Len()))
	off := snapshotHeaderSize
	for id := 0; id < s.extent(); id++ {
		o, ok := s.get(ID(id))
		if !ok {
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

// decodeSnapshot walks the snapshot, calling visit for each record. The
// state slice aliases snap and must be copied if retained.
func decodeSnapshot(snap []byte, visit func(id ID, version int64, state []byte)) (floor int64, err error) {
	if len(snap) < snapshotHeaderSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrBadSnapshot, len(snap))
	}
	floor = int64(binary.BigEndian.Uint64(snap))
	count := binary.BigEndian.Uint32(snap[8:])
	if count > MaxSnapshotObjects {
		return 0, fmt.Errorf("%w: %d objects", ErrBadSnapshot, count)
	}
	off := snapshotHeaderSize
	for i := uint32(0); i < count; i++ {
		if len(snap)-off < snapshotRecordSize {
			return 0, fmt.Errorf("%w: truncated record %d", ErrBadSnapshot, i)
		}
		id := ID(binary.BigEndian.Uint32(snap[off:]))
		version := int64(binary.BigEndian.Uint64(snap[off+4:]))
		n := binary.BigEndian.Uint32(snap[off+12:])
		off += snapshotRecordSize
		if id > MaxID {
			return 0, fmt.Errorf("%w: object ID %d exceeds the maximum %d", ErrBadSnapshot, id, MaxID)
		}
		if n > MaxSnapshotObjectBytes || len(snap)-off < int(n) {
			return 0, fmt.Errorf("%w: object %d claims %d state bytes", ErrBadSnapshot, id, n)
		}
		visit(id, version, snap[off:off+int(n)])
		off += int(n)
	}
	if off != len(snap) {
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(snap)-off)
	}
	return floor, nil
}

// Merge applies a snapshot version-gated: an object whose snapshot version
// exceeds the local version adopts the snapshot state; unknown objects are
// registered at their snapshot version. It returns the number of objects
// adopted and the snapshot's clock floor. Merging snapshots from several
// peers in any order converges to the element-wise highest-version state.
func (s *Store) Merge(snap []byte) (adopted int, floor int64, err error) {
	floor, err = decodeSnapshot(snap, func(id ID, version int64, state []byte) {
		o, ok := s.get(id)
		switch {
		case !ok:
			s.add(id, state, version)
		case version > o.version:
			s.put(id, object{data: s.copyOf(state), version: version, writer: -1})
		default:
			return
		}
		adopted++
	})
	if err != nil {
		return 0, 0, err
	}
	return adopted, floor, nil
}

// Restore replaces the store's entire contents with the snapshot,
// discarding whatever was registered before — baseline included — and
// returns the snapshot's clock floor. A restarted process with no surviving
// local state uses Restore; one that rebuilt its initial environment and
// wants the freshest of both uses Merge.
func (s *Store) Restore(snap []byte) (floor int64, err error) {
	fresh := New()
	floor, err = decodeSnapshot(snap, func(id ID, version int64, state []byte) {
		if fresh.Has(id) {
			// A repeated ID: the later record wins, as it always has.
			fresh.put(id, object{data: fresh.copyOf(state), version: version, writer: -1})
			return
		}
		fresh.add(id, state, version)
	})
	if err != nil {
		return 0, err
	}
	*s = *fresh
	return floor, nil
}
