package xlist

import (
	"encoding/binary"
	"fmt"

	"sdso/internal/diff"
	"sdso/internal/store"
)

// The DATA payload codecs come in two forms each. The Append*/Decode*Into
// forms are what the runtime's tick uses: encoders append into a caller's
// scratch buffer, decoders fill a caller's scratch slice with records whose
// byte fields (run data, XOR bytes) alias the payload — valid only until
// the payload buffer is reused, so anything retained must be copied out.
// Encode*/Decode* are the self-contained forms (fresh buffer, owned copies)
// over the same code.

// EncodeDiffs serializes a batch of object diffs into a DATA message
// payload.
func EncodeDiffs(diffs []ObjDiff) []byte { return AppendDiffs(nil, diffs) }

// AppendDiffs appends EncodeDiffs(diffs) to dst and returns the extended
// slice.
func AppendDiffs(dst []byte, diffs []ObjDiff) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(diffs)))
	for _, od := range diffs {
		dst = binary.AppendUvarint(dst, uint64(od.Obj))
		dst = binary.AppendUvarint(dst, uint64(od.Version))
		dst = binary.AppendUvarint(dst, uint64(diff.EncodedSize(od.D)))
		dst = diff.AppendEncode(dst, od.D)
	}
	return dst
}

// DeltaRecord is one entry of a delta-capable DATA payload (sent under
// wire.ModeDeltaPayload): either a full object diff — exactly what an
// ObjDiff carries — or an XOR delta against a base state the receiver is
// expected to hold, identified by the base's version and fingerprint so a
// diverged receiver rejects it instead of decoding garbage.
type DeltaRecord struct {
	Obj     store.ID
	Version int64
	// Delta selects the encoding: false means D holds a full diff, true
	// means X holds diff.AppendXOR output against (BaseVer, BaseHash).
	Delta    bool
	D        diff.Diff
	BaseVer  int64
	BaseHash uint32
	X        []byte
}

// EncodeDeltaRecords serializes a batch of delta-capable records. The
// layout extends EncodeDiffs per entry with a flag byte; full records add
// nothing else, delta records carry the base version, a fixed 4-byte base
// fingerprint, and the XOR delta bytes.
func EncodeDeltaRecords(recs []DeltaRecord) []byte { return AppendDeltaRecords(nil, recs) }

// AppendDeltaRecords appends EncodeDeltaRecords(recs) to dst and returns
// the extended slice.
func AppendDeltaRecords(dst []byte, recs []DeltaRecord) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for i := range recs {
		rec := &recs[i]
		dst = binary.AppendUvarint(dst, uint64(rec.Obj))
		dst = binary.AppendUvarint(dst, uint64(rec.Version))
		if !rec.Delta {
			dst = append(dst, 0)
			dst = binary.AppendUvarint(dst, uint64(diff.EncodedSize(rec.D)))
			dst = diff.AppendEncode(dst, rec.D)
			continue
		}
		dst = append(dst, 1)
		dst = binary.AppendUvarint(dst, uint64(rec.BaseVer))
		dst = binary.LittleEndian.AppendUint32(dst, rec.BaseHash)
		dst = binary.AppendUvarint(dst, uint64(len(rec.X)))
		dst = append(dst, rec.X...)
	}
	return dst
}

// DecodeDeltaRecords parses a payload produced by EncodeDeltaRecords into
// records that own their bytes.
func DecodeDeltaRecords(buf []byte) ([]DeltaRecord, error) {
	return decodeDeltaRecords(nil, buf, false)
}

// DecodeDeltaRecordsInto parses a payload into dst[:0], recycling dst and
// the run slices of the records it held. Record bytes alias buf.
func DecodeDeltaRecordsInto(dst []DeltaRecord, buf []byte) ([]DeltaRecord, error) {
	return decodeDeltaRecords(dst[:0], buf, true)
}

func decodeDeltaRecords(out []DeltaRecord, buf []byte, alias bool) ([]DeltaRecord, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("xlist: corrupt delta batch header")
	}
	buf = buf[n:]
	if count > uint64(len(buf))+1 {
		return nil, fmt.Errorf("xlist: delta batch claims %d entries in %d bytes", count, len(buf))
	}
	if out == nil {
		out = make([]DeltaRecord, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		obj, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("xlist: corrupt object id in delta entry %d", i)
		}
		buf = buf[n:]
		ver, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("xlist: corrupt version in delta entry %d", i)
		}
		buf = buf[n:]
		if len(buf) < 1 || buf[0] > 1 {
			return nil, fmt.Errorf("xlist: bad flag in delta entry %d", i)
		}
		isDelta := buf[0] == 1
		buf = buf[1:]
		out = extend(out)
		rec := &out[len(out)-1]
		*rec = DeltaRecord{Obj: store.ID(obj), Version: int64(ver), Delta: isDelta, D: diff.Diff{Runs: rec.D.Runs[:0]}}
		if !isDelta {
			dlen, n := binary.Uvarint(buf)
			if n <= 0 {
				return nil, fmt.Errorf("xlist: corrupt diff length in delta entry %d", i)
			}
			buf = buf[n:]
			if dlen > uint64(len(buf)) {
				return nil, fmt.Errorf("xlist: truncated diff in delta entry %d", i)
			}
			if err := decodeDiff(&rec.D, buf[:dlen], alias); err != nil {
				return nil, fmt.Errorf("xlist: delta entry %d: %w", i, err)
			}
			buf = buf[dlen:]
			continue
		}
		bver, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("xlist: corrupt base version in delta entry %d", i)
		}
		buf = buf[n:]
		if len(buf) < 4 {
			return nil, fmt.Errorf("xlist: truncated base hash in delta entry %d", i)
		}
		rec.BaseVer = int64(bver)
		rec.BaseHash = binary.LittleEndian.Uint32(buf)
		buf = buf[4:]
		xlen, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("xlist: corrupt delta length in entry %d", i)
		}
		buf = buf[n:]
		if xlen > uint64(len(buf)) {
			return nil, fmt.Errorf("xlist: truncated delta in entry %d", i)
		}
		rec.X = buf[:xlen:xlen]
		if !alias {
			rec.X = append([]byte(nil), rec.X...)
		}
		buf = buf[xlen:]
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("xlist: %d trailing bytes in delta batch", len(buf))
	}
	return out, nil
}

// extend grows s by one element, resurrecting the element (and the run
// slice it holds) that an earlier, longer use of the backing left there.
func extend[T any](s []T) []T {
	if len(s) < cap(s) {
		return s[:len(s)+1]
	}
	var zero T
	return append(s, zero)
}

// decodeDiff parses one encoded diff into d, aliasing buf or owning copies.
func decodeDiff(d *diff.Diff, buf []byte, alias bool) error {
	if alias {
		return diff.DecodeAliased(d, buf)
	}
	var err error
	*d, err = diff.Decode(buf)
	return err
}

// DecodeDiffs parses a DATA message payload produced by EncodeDiffs into
// diffs that own their bytes.
func DecodeDiffs(buf []byte) ([]ObjDiff, error) {
	return decodeDiffs(nil, buf, false)
}

// DecodeDiffsInto parses a payload into dst[:0], recycling dst and the run
// slices of the diffs it held. Run data aliases buf.
func DecodeDiffsInto(dst []ObjDiff, buf []byte) ([]ObjDiff, error) {
	return decodeDiffs(dst[:0], buf, true)
}

func decodeDiffs(out []ObjDiff, buf []byte, alias bool) ([]ObjDiff, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return nil, fmt.Errorf("xlist: corrupt diff batch header")
	}
	buf = buf[n:]
	if count > uint64(len(buf))+1 {
		return nil, fmt.Errorf("xlist: diff batch claims %d entries in %d bytes", count, len(buf))
	}
	if out == nil {
		out = make([]ObjDiff, 0, count)
	}
	for i := uint64(0); i < count; i++ {
		obj, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("xlist: corrupt object id in entry %d", i)
		}
		buf = buf[n:]
		ver, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("xlist: corrupt version in entry %d", i)
		}
		buf = buf[n:]
		dlen, n := binary.Uvarint(buf)
		if n <= 0 {
			return nil, fmt.Errorf("xlist: corrupt diff length in entry %d", i)
		}
		buf = buf[n:]
		if dlen > uint64(len(buf)) {
			return nil, fmt.Errorf("xlist: truncated diff in entry %d", i)
		}
		out = extend(out)
		od := &out[len(out)-1]
		*od = ObjDiff{Obj: store.ID(obj), Version: int64(ver), D: diff.Diff{Runs: od.D.Runs[:0]}}
		if err := decodeDiff(&od.D, buf[:dlen], alias); err != nil {
			return nil, fmt.Errorf("xlist: entry %d: %w", i, err)
		}
		buf = buf[dlen:]
	}
	if len(buf) != 0 {
		return nil, fmt.Errorf("xlist: %d trailing bytes in diff batch", len(buf))
	}
	return out, nil
}
