package lrc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sdso/internal/race"
	"sdso/internal/store"
)

// decoded is the board buf carries, taken into an empty one.
func decoded(t *testing.T, buf []byte) board {
	t.Helper()
	b := board{}
	if !b.take(buf, 16) {
		t.Fatalf("take refused %x", buf)
	}
	return b
}

func TestBoardCodecRoundTrip(t *testing.T) {
	b := board{
		3:   {writer: 1, version: 5},
		17:  {writer: 0, version: 2},
		400: {writer: 7, version: 99},
	}
	var e encoder
	dec := decoded(t, e.encode(b))
	if len(dec) != len(b) {
		t.Fatalf("size %d, want %d", len(dec), len(b))
	}
	for id, n := range b {
		if dec[id] != n {
			t.Errorf("entry %d = %+v, want %+v", id, dec[id], n)
		}
	}

	// Empty board.
	if dec := decoded(t, e.encode(board{})); len(dec) != 0 {
		t.Errorf("empty board decoded to %v", dec)
	}

	// The scratch is reused: encoding and taking a board allocate nothing
	// once the encoder and the board have grown.
	if race.Enabled {
		return // the detector's instrumentation allocates
	}
	into := board{}
	if allocs := testing.AllocsPerRun(100, func() { into.take(e.encode(b), 16) }); allocs != 0 {
		t.Errorf("encode and take: %.1f allocations, want 0", allocs)
	}
}

func TestBoardCodecQuick(t *testing.T) {
	var e encoder
	f := func(entries map[uint16]uint8) bool {
		b := make(board, len(entries))
		for id, v := range entries {
			b[store.ID(id)] = notice{writer: int(v) % 16, version: int64(v) + 1}
		}
		dec := board{}
		if !dec.take(e.encode(b), 16) || len(dec) != len(b) {
			return false
		}
		for id, n := range b {
			if dec[id] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestBoardMergeKeepsNewest(t *testing.T) {
	var e encoder
	a := board{1: {writer: 0, version: 3}, 2: {writer: 1, version: 1}}
	a.take(e.encode(board{1: {writer: 2, version: 5}, 3: {writer: 3, version: 1}}), 16)
	if a[1] != (notice{writer: 2, version: 5}) {
		t.Errorf("newer notice lost: %+v", a[1])
	}
	if a[2] != (notice{writer: 1, version: 1}) || a[3] != (notice{writer: 3, version: 1}) {
		t.Errorf("merge dropped entries: %+v", a)
	}
	// Older notices never regress the board.
	a.take(e.encode(board{1: {writer: 9, version: 2}}), 16)
	if a[1].version != 5 {
		t.Errorf("older notice regressed board: %+v", a[1])
	}
	// A notice whose writer is not a team is dropped, the rest kept.
	a.take(e.encode(board{4: {writer: 16, version: 7}, 5: {writer: 15, version: 7}}), 16)
	if _, ok := a[4]; ok || a[5] != (notice{writer: 15, version: 7}) {
		t.Errorf("writer check: %+v", a)
	}
}

func TestDecodeBoardCorrupt(t *testing.T) {
	var e encoder
	good := append([]byte(nil), e.encode(board{5: {writer: 1, version: 2}, 9: {writer: 2, version: 4}})...)
	cases := map[string][]byte{
		"empty":      {},
		"truncated":  good[:len(good)-1], // the first notice is whole
		"huge count": {0xff, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, buf := range cases {
		t.Run(name, func(t *testing.T) {
			if b := (board{}); b.take(buf, 16) || len(b) != 0 {
				t.Errorf("took a corrupt board: %v", b)
			}
		})
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		buf := make([]byte, rng.Intn(50))
		rng.Read(buf)
		board{}.take(buf, 16)
	}
}
