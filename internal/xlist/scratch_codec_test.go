package xlist

import (
	"bytes"
	"math/rand"
	"testing"

	"sdso/internal/diff"
	"sdso/internal/store"
)

// randomBatch builds a delta-capable batch mixing full records (run diffs
// and replacements) with XOR delta records, and the plain diffs of its full
// records.
func randomBatch(rng *rand.Rand) (recs []DeltaRecord, diffs []ObjDiff) {
	for i := rng.Intn(6); i >= 0; i-- {
		base := make([]byte, 1+rng.Intn(40))
		rng.Read(base)
		next := bytes.Clone(base)
		next[rng.Intn(len(next))] ^= 0x5A
		rec := DeltaRecord{Obj: store.ID(rng.Intn(1000)), Version: int64(rng.Intn(1 << 20))}
		switch rng.Intn(3) {
		case 0:
			rec.D = diff.Compute(base, next)
		case 1:
			rec.D = diff.Diff{Replace: true, Len: len(next), Runs: []diff.Run{{Data: next}}}
		default:
			rec.Delta, rec.BaseVer, rec.BaseHash = true, int64(rng.Intn(100)), diff.Fingerprint(base)
			rec.X, _ = diff.AppendXOR(nil, base, next)
		}
		recs = append(recs, rec)
		if !rec.Delta {
			diffs = append(diffs, ObjDiff{Obj: rec.Obj, Version: rec.Version, D: rec.D})
		}
	}
	return recs, diffs
}

// TestScratchCodecsMatchAllocatingForms: the Append* encoders write exactly
// the Encode* bytes after dst's content, and the Decode*Into decoders —
// one scratch slice recycled across payloads of different shapes — yield
// the same batch by value as the owning decoders, aliasing the payload
// where those copy.
func TestScratchCodecsMatchAllocatingForms(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prefix := []byte("prefix")
	var recScratch []DeltaRecord
	var diffScratch []ObjDiff
	for i := 0; i < 300; i++ {
		recs, diffs := randomBatch(rng)

		payload := EncodeDeltaRecords(recs)
		if got := AppendDeltaRecords(bytes.Clone(prefix), recs); !bytes.Equal(got, append(bytes.Clone(prefix), payload...)) {
			t.Fatal("AppendDeltaRecords diverges from EncodeDeltaRecords")
		}
		owned, err := DecodeDeltaRecords(payload)
		if err != nil {
			t.Fatal(err)
		}
		recScratch, err = DecodeDeltaRecordsInto(recScratch, payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(recScratch) != len(owned) || !bytes.Equal(EncodeDeltaRecords(recScratch), payload) {
			t.Fatalf("DecodeDeltaRecordsInto = %+v, DecodeDeltaRecords = %+v", recScratch, owned)
		}
		for j := range owned {
			a, b := recScratch[j], owned[j]
			if a.Obj != b.Obj || a.Version != b.Version || a.Delta != b.Delta || a.BaseVer != b.BaseVer || a.BaseHash != b.BaseHash {
				t.Fatalf("record %d: %+v vs %+v", j, a, b)
			}
		}

		plain := EncodeDiffs(diffs)
		if got := AppendDiffs(bytes.Clone(prefix), diffs); !bytes.Equal(got, append(bytes.Clone(prefix), plain...)) {
			t.Fatal("AppendDiffs diverges from EncodeDiffs")
		}
		ownedDiffs, err := DecodeDiffs(plain)
		if err != nil {
			t.Fatal(err)
		}
		diffScratch, err = DecodeDiffsInto(diffScratch, plain)
		if err != nil {
			t.Fatal(err)
		}
		if len(diffScratch) != len(ownedDiffs) || !bytes.Equal(EncodeDiffs(diffScratch), plain) {
			t.Fatalf("DecodeDiffsInto = %+v, DecodeDiffs = %+v", diffScratch, ownedDiffs)
		}

		// The owning forms survive their payload; the scratch forms alias it.
		for k := range payload {
			payload[k] = 0xEE
		}
		for k := range plain {
			plain[k] = 0xEE
		}
		if len(owned) > 0 && bytes.Equal(EncodeDeltaRecords(owned), payload) {
			t.Fatal("DecodeDeltaRecords' result aliases the payload")
		}
		if len(ownedDiffs) > 0 && bytes.Equal(EncodeDiffs(ownedDiffs), plain) {
			t.Fatal("DecodeDiffs' result aliases the payload")
		}
		for _, rec := range recScratch {
			if rec.Delta && !bytes.Equal(rec.X, bytes.Repeat([]byte{0xEE}, len(rec.X))) {
				t.Fatal("DecodeDeltaRecordsInto copied the XOR bytes instead of aliasing them")
			}
		}
	}
}
