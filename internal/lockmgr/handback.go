// Shard handback for peer rejoin: when a crashed base manager restarts,
// the node that adopted its shard Exports the live lock records and ships
// them back, and the rejoining manager Readmits them — reversing the
// PurgeProc/Adopt failover path. Transferring holders, queues, and
// ownership (not just object IDs) means locks granted by the adopter
// release cleanly at the restored base manager.
package lockmgr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"sdso/internal/store"
)

// Record is the serializable state of one managed lock.
type Record struct {
	Obj     store.ID
	Mode    Mode
	Holders []int // ascending
	Queue   []Request
	Owner   int
	Version int64
}

// Export removes the given objects from the manager and returns their
// records in ascending object order. Objects not managed here are skipped,
// so an adopter exports exactly the part of a shard it actually holds.
func (m *Manager) Export(objs []store.ID) []Record {
	sorted := slices.Clone(objs)
	slices.Sort(sorted)
	var out []Record
	for _, obj := range sorted {
		st, ok := m.locks[obj]
		if !ok {
			continue
		}
		delete(m.locks, obj)
		out = append(out, Record{
			Obj: obj, Mode: st.mode, Owner: st.owner, Version: st.version,
			Holders: append([]int(nil), st.holders...),
			Queue:   append([]Request(nil), st.queue...),
		})
	}
	return out
}

// Readmit installs exported records at the rejoining base manager,
// reversing a crash eviction's Adopt. Objects already managed here keep
// their current state (the handback lost a race with local re-adoption;
// first state wins to keep grants consistent).
func (m *Manager) Readmit(recs []Record) {
	for _, rec := range recs {
		if _, ok := m.locks[rec.Obj]; ok {
			continue
		}
		st := &newStates(1)[0]
		st.mode, st.owner, st.version = rec.Mode, rec.Owner, rec.Version
		st.holders = append(st.holders, rec.Holders...)
		slices.Sort(st.holders)
		st.holders = slices.Compact(st.holders)
		st.queue = append(st.queue, rec.Queue...)
		m.locks[rec.Obj] = st
	}
}

// Codec limits for decoded handback payloads.
const (
	maxRecords        = 1 << 20
	maxRecordMembers  = 1 << 16
	recordHeaderSize  = 4 + 1 + 4 + 8 + 4 + 4 // obj, mode, owner, version, nholders, nqueue
	queueEntrySize    = 4 + 4 + 1             // proc, obj, mode
	recordsHeaderSize = 4                     // record count
)

// ErrBadRecords reports a handback payload that fails validation.
var ErrBadRecords = errors.New("lockmgr: malformed lock records")

// EncodeRecords serializes records for the wire (KindJoinAck payloads).
func EncodeRecords(recs []Record) []byte {
	size := recordsHeaderSize
	for _, r := range recs {
		size += recordHeaderSize + 4*len(r.Holders) + queueEntrySize*len(r.Queue)
	}
	buf := make([]byte, size)
	binary.BigEndian.PutUint32(buf, uint32(len(recs)))
	off := recordsHeaderSize
	for _, r := range recs {
		binary.BigEndian.PutUint32(buf[off:], uint32(r.Obj))
		buf[off+4] = byte(r.Mode)
		binary.BigEndian.PutUint32(buf[off+5:], uint32(r.Owner))
		binary.BigEndian.PutUint64(buf[off+9:], uint64(r.Version))
		binary.BigEndian.PutUint32(buf[off+17:], uint32(len(r.Holders)))
		binary.BigEndian.PutUint32(buf[off+21:], uint32(len(r.Queue)))
		off += recordHeaderSize
		for _, p := range r.Holders {
			binary.BigEndian.PutUint32(buf[off:], uint32(p))
			off += 4
		}
		for _, q := range r.Queue {
			binary.BigEndian.PutUint32(buf[off:], uint32(q.Proc))
			binary.BigEndian.PutUint32(buf[off+4:], uint32(q.Obj))
			buf[off+8] = byte(q.Mode)
			off += queueEntrySize
		}
	}
	return buf
}

// DecodeRecords parses an EncodeRecords payload, validating bounds.
func DecodeRecords(buf []byte) ([]Record, error) {
	if len(buf) < recordsHeaderSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadRecords, len(buf))
	}
	count := binary.BigEndian.Uint32(buf)
	if count > maxRecords {
		return nil, fmt.Errorf("%w: %d records", ErrBadRecords, count)
	}
	off := recordsHeaderSize
	recs := make([]Record, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(buf)-off < recordHeaderSize {
			return nil, fmt.Errorf("%w: truncated record %d", ErrBadRecords, i)
		}
		r := Record{
			Obj:     store.ID(binary.BigEndian.Uint32(buf[off:])),
			Mode:    Mode(buf[off+4]),
			Owner:   int(int32(binary.BigEndian.Uint32(buf[off+5:]))),
			Version: int64(binary.BigEndian.Uint64(buf[off+9:])),
		}
		nHolders := binary.BigEndian.Uint32(buf[off+17:])
		nQueue := binary.BigEndian.Uint32(buf[off+21:])
		off += recordHeaderSize
		if nHolders > maxRecordMembers || nQueue > maxRecordMembers {
			return nil, fmt.Errorf("%w: record %d member counts %d/%d", ErrBadRecords, i, nHolders, nQueue)
		}
		need := 4*int(nHolders) + queueEntrySize*int(nQueue)
		if len(buf)-off < need {
			return nil, fmt.Errorf("%w: truncated record %d body", ErrBadRecords, i)
		}
		for j := uint32(0); j < nHolders; j++ {
			r.Holders = append(r.Holders, int(int32(binary.BigEndian.Uint32(buf[off:]))))
			off += 4
		}
		for j := uint32(0); j < nQueue; j++ {
			r.Queue = append(r.Queue, Request{
				Proc: int(int32(binary.BigEndian.Uint32(buf[off:]))),
				Obj:  store.ID(binary.BigEndian.Uint32(buf[off+4:])),
				Mode: Mode(buf[off+8]),
			})
			off += queueEntrySize
		}
		recs = append(recs, r)
	}
	if off != len(buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadRecords, len(buf)-off)
	}
	return recs, nil
}
