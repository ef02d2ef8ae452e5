package xlist

import (
	"bytes"
	"testing"
)

// FuzzDecodeDiffs: arbitrary DATA payloads must never panic the batch
// decoder, and accepted batches must round trip.
func FuzzDecodeDiffs(f *testing.F) {
	f.Add(EncodeDiffs(nil))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		diffs, err := DecodeDiffs(data)
		if err != nil {
			return
		}
		enc := EncodeDiffs(diffs)
		if scratch, err := DecodeDiffsInto(nil, data); err != nil || !bytes.Equal(EncodeDiffs(scratch), enc) {
			t.Fatalf("DecodeDiffsInto disagrees with DecodeDiffs: %v", err)
		}
		re, err := DecodeDiffs(enc)
		if err != nil {
			t.Fatalf("accepted batch failed to round trip: %v", err)
		}
		if len(re) != len(diffs) {
			t.Fatalf("round trip changed batch size: %d vs %d", len(re), len(diffs))
		}
	})
}
