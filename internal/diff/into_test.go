package diff

import (
	"bytes"
	"math/rand"
	"testing"

	"sdso/internal/race"
)

// --- coalesceGap boundary cases (coalesceGap == 8) ---

// TestComputeCoalesceGapBoundary pins the run-splitting rule: two differing
// stretches separated by exactly coalesceGap-1 identical bytes merge into
// one run; separated by exactly coalesceGap they stay apart.
func TestComputeCoalesceGapBoundary(t *testing.T) {
	mk := func(gap int) (old, new []byte) {
		old = make([]byte, 2+gap+30)
		new = append([]byte(nil), old...)
		new[0] = 1     // first differing byte
		new[1+gap] = 1 // second differing byte, gap identical bytes between
		return old, new
	}

	old7, new7 := mk(coalesceGap - 1)
	d7 := Compute(old7, new7)
	if len(d7.Runs) != 1 {
		t.Errorf("gap of %d bytes: got %d runs, want 1 (absorbed)", coalesceGap-1, len(d7.Runs))
	} else if got := d7.Runs[0]; got.Off != 0 || len(got.Data) != coalesceGap+1 {
		t.Errorf("gap of %d bytes: run off=%d len=%d, want off=0 len=%d", coalesceGap-1, got.Off, len(got.Data), coalesceGap+1)
	}

	old8, new8 := mk(coalesceGap)
	d8 := Compute(old8, new8)
	if len(d8.Runs) != 2 {
		t.Fatalf("gap of %d bytes: got %d runs, want 2 (split)", coalesceGap, len(d8.Runs))
	}
	if d8.Runs[0].Off != 0 || len(d8.Runs[0].Data) != 1 || d8.Runs[1].Off != 1+coalesceGap || len(d8.Runs[1].Data) != 1 {
		t.Errorf("gap of %d bytes: runs %+v", coalesceGap, d8.Runs)
	}

	for _, c := range []struct {
		old, new []byte
		d        Diff
	}{{old7, new7, d7}, {old8, new8, d8}} {
		got, err := Apply(c.old, c.d)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, c.new) {
			t.Errorf("apply round-trip broke: got %v want %v", got, c.new)
		}
	}
}

// TestComputeTrailingEqualTail: an equal tail shorter than the coalesce gap
// at the very end of the state must not be absorbed into the final run —
// the probe has no later difference to justify it.
func TestComputeTrailingEqualTail(t *testing.T) {
	old := make([]byte, 16)
	new := append([]byte(nil), old...)
	new[3] = 7 // single difference, then 12 equal bytes to the end
	d := Compute(old, new)
	if len(d.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(d.Runs))
	}
	if d.Runs[0].Off != 3 || len(d.Runs[0].Data) != 1 {
		t.Errorf("trailing tail absorbed: run off=%d len=%d, want off=3 len=1", d.Runs[0].Off, len(d.Runs[0].Data))
	}

	// Same with a tail shorter than the gap (tail < coalesceGap): still
	// excluded, because the probe runs off the end of the state.
	old2 := make([]byte, 8)
	new2 := append([]byte(nil), old2...)
	new2[2] = 9 // difference, then 5 equal bytes of tail
	d2 := Compute(old2, new2)
	if len(d2.Runs) != 1 || d2.Runs[0].Off != 2 || len(d2.Runs[0].Data) != 1 {
		t.Errorf("short trailing tail: runs %+v, want one 1-byte run at 2", d2.Runs)
	}
}

// TestComputeAllDifferent: a state with every byte changed is one run
// spanning the whole state, not a replacement (lengths match).
func TestComputeAllDifferent(t *testing.T) {
	old := bytes.Repeat([]byte{0x00}, 64)
	new := bytes.Repeat([]byte{0xFF}, 64)
	d := Compute(old, new)
	if d.Replace {
		t.Error("same-length all-different state must not be a replacement")
	}
	if len(d.Runs) != 1 || d.Runs[0].Off != 0 || len(d.Runs[0].Data) != 64 {
		t.Fatalf("runs %+v, want one 64-byte run at 0", d.Runs)
	}
	got, err := Apply(old, d)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, new) {
		t.Error("apply round-trip broke")
	}
}

// --- reuse variants vs. the originals ---

// randState derives pseudo-random states sharing structure, so diffs have
// runs, gaps, and equal stretches in varied positions.
func randStates(r *rand.Rand, n int) (old, new []byte) {
	old = make([]byte, n)
	r.Read(old)
	new = append([]byte(nil), old...)
	edits := 1 + r.Intn(6)
	for e := 0; e < edits; e++ {
		if n == 0 {
			break
		}
		off := r.Intn(n)
		l := 1 + r.Intn(9)
		for k := off; k < off+l && k < n; k++ {
			new[k] = byte(r.Int())
		}
	}
	return old, new
}

// dirtyDiff returns a Diff with stale garbage in its storage, as a reused
// destination would carry.
func dirtyDiff() Diff {
	return Diff{
		Replace: true,
		Len:     3,
		Runs: []Run{
			{Off: 5, Data: []byte{1, 2, 3, 4, 5, 6, 7, 8}},
			{Off: 99, Data: []byte{0xEE}},
		},
	}
}

// TestComputeIntoMatchesCompute: ComputeInto with a dirty reused
// destination must produce exactly Compute's result.
func TestComputeIntoMatchesCompute(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		old, new := randStates(r, 1+r.Intn(128))
		if i%7 == 0 {
			new = new[:r.Intn(len(new))] // length change → replacement
		}
		want := Compute(old, new)
		got := dirtyDiff()
		ComputeInto(&got, old, new)
		if got.Replace != want.Replace || got.Len != want.Len || len(got.Runs) != len(want.Runs) {
			t.Fatalf("case %d: shape differs: got %+v want %+v", i, got, want)
		}
		for k := range want.Runs {
			if got.Runs[k].Off != want.Runs[k].Off || !bytes.Equal(got.Runs[k].Data, want.Runs[k].Data) {
				t.Fatalf("case %d run %d: got %+v want %+v", i, k, got.Runs[k], want.Runs[k])
			}
		}
	}
}

// TestMergeIntoMatchesMerge differentially tests the allocation-free
// merge-walk against the span-splitting Merge across random diff pairs,
// including replacements and empty diffs.
func TestMergeIntoMatchesMerge(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 1000; i++ {
		n := 1 + r.Intn(96)
		s0, s1 := randStates(r, n)
		_, s2 := randStates(r, n)
		copy(s2[:n/2], s1[:n/2]) // share structure with s1
		first := Compute(s0, s1)
		second := Compute(s1, s2)
		switch i % 11 {
		case 3:
			first = Diff{Len: n} // empty first
		case 5:
			second = Diff{Len: n} // empty second
		case 7:
			first = Compute(s0[:n/2], s1) // replacement first
		case 9:
			second = Compute(s1[:n/2], s2) // length change → replacement second
			first = Compute(s0[:n/2], s1)
		}

		want, wantErr := Merge(first, second)
		got := dirtyDiff()
		gotErr := MergeInto(&got, first, second)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("case %d: error mismatch: Merge=%v MergeInto=%v", i, wantErr, gotErr)
		}
		if wantErr != nil {
			continue
		}
		if got.Replace != want.Replace || got.Len != want.Len || len(got.Runs) != len(want.Runs) {
			t.Fatalf("case %d: shape differs:\n got %+v\nwant %+v\n(first %+v second %+v)", i, got, want, first, second)
		}
		for k := range want.Runs {
			if got.Runs[k].Off != want.Runs[k].Off || !bytes.Equal(got.Runs[k].Data, want.Runs[k].Data) {
				t.Fatalf("case %d run %d: got %+v want %+v", i, k, got.Runs[k], want.Runs[k])
			}
		}
	}
}

// TestMergeIntoLengthMismatch mirrors Merge's error contract.
func TestMergeIntoLengthMismatch(t *testing.T) {
	a := Compute(make([]byte, 8), bytes.Repeat([]byte{1}, 8))
	b := Compute(make([]byte, 9), bytes.Repeat([]byte{1}, 9))
	var dst Diff
	if err := MergeInto(&dst, a, b); err == nil {
		t.Error("MergeInto accepted mismatched lengths")
	}
}

// TestApplyToReusesDst: ApplyTo must resize dst in place when capacity
// suffices and produce Apply's exact result.
func TestApplyToReusesDst(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	dst := make([]byte, 0, 256)
	for i := 0; i < 200; i++ {
		old, new := randStates(r, 1+r.Intn(128))
		d := Compute(old, new)
		want, err := Apply(old, d)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ApplyTo(dst, old, d)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: ApplyTo diverges from Apply", i)
		}
		if cap(got) == 256 && len(got) > 0 && &got[0] != &dst[:1][0] {
			t.Fatalf("case %d: ApplyTo reallocated despite capacity", i)
		}
	}
}

// TestComputeApplyIntoRoundTrip drives the full reuse loop the protocols
// run: one recycled Diff, one recycled state buffer, many modifications —
// and, once both are warm, no allocation.
func TestComputeApplyIntoRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	state := make([]byte, 64)
	r.Read(state)
	peer := append([]byte(nil), state...)
	var d Diff
	buf := make([]byte, 0, 64)
	for step := 0; step < 300; step++ {
		next := append([]byte(nil), state...)
		for e := 0; e < 1+r.Intn(4); e++ {
			next[r.Intn(len(next))] = byte(r.Int())
		}
		ComputeInto(&d, state, next)
		var err error
		buf, err = ApplyTo(buf, peer, d)
		if err != nil {
			t.Fatal(err)
		}
		peer = append(peer[:0], buf...)
		state = next
		if !bytes.Equal(peer, state) {
			t.Fatalf("step %d: peer diverged from writer", step)
		}
	}

	if race.Enabled {
		return // the detector's instrumentation allocates
	}
	next := append([]byte(nil), state...)
	next[0], next[40] = ^next[0], ^next[40]
	var err error
	if allocs := testing.AllocsPerRun(10, func() {
		ComputeInto(&d, state, next)
		buf, err = ApplyTo(buf, peer, d)
	}); allocs != 0 || err != nil {
		t.Errorf("ComputeInto + ApplyTo on warm storage: %.1f allocations (err %v), want 0", allocs, err)
	}
}
