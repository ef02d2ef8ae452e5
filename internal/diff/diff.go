// Package diff computes, applies, merges, and encodes byte-level diffs of
// shared-object state. S-DSO buffers "diffs of the state of each object
// since their previous modification" in the slotted buffer, and "can be
// tuned to merge multiple diffs to the same object into one diff since the
// last exchange with a given process" (paper §3.1) — Merge implements that
// optimization, and the bench harness measures its effect.
//
// A Diff is a sorted list of non-overlapping byte runs to overlay on a base
// state of the same length, or a whole-state replacement when the lengths
// differ (the common case in the game never changes object sizes).
package diff

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
)

// Run is one contiguous edit: Data overwrites the bytes at [Off, Off+len).
type Run struct {
	Off  int
	Data []byte
}

// Diff describes how to transform one object state into another.
type Diff struct {
	// Replace, when true, means Runs holds exactly one run at offset 0
	// whose data is the complete new state (used when lengths differ).
	Replace bool
	// Len is the length of the state the diff produces.
	Len int
	// Runs are sorted by offset and non-overlapping.
	Runs []Run
}

// coalesceGap joins two differing runs separated by fewer than this many
// identical bytes; small gaps cost more in run headers than they save.
const coalesceGap = 8

// Errors returned by this package.
var (
	ErrLengthMismatch = errors.New("diff: state length mismatch")
	ErrOutOfBounds    = errors.New("diff: run exceeds state bounds")
	ErrCorrupt        = errors.New("diff: corrupt encoding")
)

// grow extends d.Runs by one slot, resurrecting a previously truncated
// element (and its Data capacity) when the backing array allows.
func (d *Diff) grow() *Run {
	n := len(d.Runs)
	if n < cap(d.Runs) {
		d.Runs = d.Runs[:n+1]
	} else {
		d.Runs = append(d.Runs, Run{})
	}
	return &d.Runs[n]
}

// appendRun appends a run holding a copy of data, reusing recycled run
// storage where capacity allows. Run data is never nil, matching the
// codec's decoded form (an empty replacement has a 0-length data slice).
func (d *Diff) appendRun(off int, data []byte) {
	r := d.grow()
	r.Off = off
	if r.Data == nil && len(data) == 0 {
		r.Data = make([]byte, 0)
		return
	}
	r.Data = append(r.Data[:0], data...)
}

// Compute returns the diff that transforms old into new. If the lengths
// differ it returns a whole-state replacement.
func Compute(old, new []byte) Diff {
	var d Diff
	ComputeInto(&d, old, new)
	return d
}

// ComputeInto is Compute with reuse semantics: the result lands in d,
// recycling d's Runs slice and each run's Data capacity. A steady-state
// differ that recycles one Diff per object computes diffs with zero heap
// allocations once its buffers have warmed up.
func ComputeInto(d *Diff, old, new []byte) {
	d.Runs = d.Runs[:0]
	d.Len = len(new)
	d.Replace = false
	if len(old) != len(new) {
		d.Replace = true
		d.appendRun(0, new)
		return
	}
	i := 0
	for i < len(new) {
		if old[i] == new[i] {
			i++
			continue
		}
		start := i
		// Extend the run past short equal gaps.
		last := i // last differing index seen
		for i < len(new) {
			if old[i] != new[i] {
				last = i
				i++
				continue
			}
			// Probe ahead: if another difference occurs within the
			// coalesce gap, absorb the equal stretch.
			j := i
			for j < len(new) && j-i < coalesceGap && old[j] == new[j] {
				j++
			}
			if j < len(new) && j-i < coalesceGap {
				i = j
				continue
			}
			break
		}
		d.appendRun(start, new[start:last+1])
	}
}

// Replacement returns the complete new state a well-formed whole-state
// replacement carries, without copying: the result aliases the diff's run
// data. Published state bytes are immutable (see DESIGN.md, "Ownership and
// memory"), so holders of the diff and of the state may share them. ok is
// false for run diffs and malformed replacements.
func (d Diff) Replacement() (state []byte, ok bool) {
	if !d.Replace || len(d.Runs) != 1 || d.Runs[0].Off != 0 || len(d.Runs[0].Data) != d.Len {
		return nil, false
	}
	return d.Runs[0].Data, true
}

// Empty reports whether the diff changes nothing.
func (d Diff) Empty() bool { return !d.Replace && len(d.Runs) == 0 }

// Apply transforms base according to the diff, returning a fresh slice.
func Apply(base []byte, d Diff) ([]byte, error) {
	return ApplyTo(nil, base, d)
}

// ApplyTo is Apply with reuse semantics: the transformed state is written
// into dst (resized in place when its capacity suffices) and returned.
// dst must not alias base or the diff's run data. Callers that recycle one
// state buffer per object apply diffs with zero heap allocations.
func ApplyTo(dst, base []byte, d Diff) ([]byte, error) {
	if d.Replace {
		state, ok := d.Replacement()
		if !ok {
			return nil, fmt.Errorf("%w: malformed replacement", ErrCorrupt)
		}
		return append(dst[:0], state...), nil
	}
	if len(base) != d.Len {
		return nil, fmt.Errorf("%w: base %d, diff %d", ErrLengthMismatch, len(base), d.Len)
	}
	out := append(dst[:0], base...)
	for _, r := range d.Runs {
		if r.Off < 0 || r.Off+len(r.Data) > len(out) {
			return nil, fmt.Errorf("%w: run at %d len %d in state of %d", ErrOutOfBounds, r.Off, len(r.Data), len(out))
		}
		copy(out[r.Off:], r.Data)
	}
	return out, nil
}

// Merge returns a single diff equivalent to applying first and then second.
// Later writes win on overlap. Both diffs must produce states of the same
// length unless one is a replacement.
func Merge(first, second Diff) (Diff, error) {
	switch {
	case second.Replace:
		return second.clone(), nil
	case first.Replace:
		// Apply second on top of the replacement state.
		state, err := Apply(first.Runs[0].Data, second)
		if err != nil {
			return Diff{}, fmt.Errorf("merge onto replacement: %w", err)
		}
		return Diff{Replace: true, Len: len(state), Runs: []Run{{Off: 0, Data: state}}}, nil
	case first.Empty():
		return second.clone(), nil
	case second.Empty():
		return first.clone(), nil
	case first.Len != second.Len:
		return Diff{}, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, first.Len, second.Len)
	}

	// Overlay: second's runs shadow first's where they overlap.
	type span struct {
		off  int
		data []byte
	}
	var spans []span
	for _, r := range first.Runs {
		// Clip r against every run of second.
		cur := span{off: r.Off, data: r.Data}
		pieces := []span{cur}
		for _, s := range second.Runs {
			var next []span
			for _, p := range pieces {
				pEnd := p.off + len(p.data)
				sEnd := s.Off + len(s.Data)
				if sEnd <= p.off || s.Off >= pEnd {
					next = append(next, p)
					continue
				}
				if s.Off > p.off {
					next = append(next, span{off: p.off, data: p.data[:s.Off-p.off]})
				}
				if sEnd < pEnd {
					next = append(next, span{off: sEnd, data: p.data[sEnd-p.off:]})
				}
			}
			pieces = next
		}
		spans = append(spans, pieces...)
	}
	for _, r := range second.Runs {
		spans = append(spans, span{off: r.Off, data: r.Data})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })

	out := Diff{Len: first.Len}
	for _, sp := range spans {
		if len(sp.data) == 0 {
			continue
		}
		// Coalesce adjacent spans.
		if n := len(out.Runs); n > 0 && out.Runs[n-1].Off+len(out.Runs[n-1].Data) == sp.off {
			out.Runs[n-1].Data = append(out.Runs[n-1].Data, sp.data...)
			continue
		}
		data := make([]byte, len(sp.data))
		copy(data, sp.data)
		out.Runs = append(out.Runs, Run{Off: sp.off, Data: data})
	}
	return out, nil
}

// cloneInto copies src into dst with reuse semantics.
func (d Diff) cloneInto(dst *Diff) {
	dst.Replace = d.Replace
	dst.Len = d.Len
	dst.Runs = dst.Runs[:0]
	for _, r := range d.Runs {
		dst.appendRun(r.Off, r.Data)
	}
	if d.Runs == nil {
		dst.Runs = nil
	}
}

// MergeInto is Merge with reuse semantics: the merged diff lands in dst,
// recycling dst's Runs and run Data storage. dst must not alias first or
// second (their runs are read throughout the merge). Unlike Merge, which
// builds an intermediate span list, MergeInto walks the two sorted run
// lists directly, so a steady-state merger allocates nothing once dst's
// buffers have warmed up. Differentially tested against Merge.
func MergeInto(dst *Diff, first, second Diff) error {
	switch {
	case second.Replace:
		second.cloneInto(dst)
		return nil
	case first.Replace:
		// Apply second on top of the replacement state. The intermediate
		// state lands in dst's single run, reused when possible.
		state, err := Apply(first.Runs[0].Data, second)
		if err != nil {
			return fmt.Errorf("merge onto replacement: %w", err)
		}
		dst.Replace = true
		dst.Len = len(state)
		dst.Runs = dst.Runs[:0]
		dst.appendRun(0, state)
		return nil
	case first.Empty():
		second.cloneInto(dst)
		return nil
	case second.Empty():
		first.cloneInto(dst)
		return nil
	case first.Len != second.Len:
		return fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, first.Len, second.Len)
	}

	dst.Replace = false
	dst.Len = first.Len
	dst.Runs = dst.Runs[:0]
	// emit appends [off, off+len(data)) to dst, coalescing with the
	// previous run when adjacent. Calls arrive in ascending offset order.
	emit := func(off int, data []byte) {
		if len(data) == 0 {
			return
		}
		if n := len(dst.Runs); n > 0 && dst.Runs[n-1].Off+len(dst.Runs[n-1].Data) == off {
			dst.Runs[n-1].Data = append(dst.Runs[n-1].Data, data...)
			return
		}
		dst.appendRun(off, data)
	}

	// Walk both sorted, non-overlapping run lists; second's runs shadow
	// first's wherever they overlap.
	fi, si := 0, 0
	fCur := 0 // progress cursor within first.Runs[fi]
	if len(first.Runs) > 0 {
		fCur = first.Runs[0].Off
	}
	for fi < len(first.Runs) || si < len(second.Runs) {
		if fi >= len(first.Runs) {
			s := second.Runs[si]
			emit(s.Off, s.Data)
			si++
			continue
		}
		f := first.Runs[fi]
		if fCur < f.Off {
			fCur = f.Off
		}
		fEnd := f.Off + len(f.Data)
		if fCur >= fEnd {
			fi++
			continue
		}
		if si >= len(second.Runs) {
			emit(fCur, f.Data[fCur-f.Off:])
			fi++
			fCur = fEnd
			continue
		}
		s := second.Runs[si]
		sEnd := s.Off + len(s.Data)
		switch {
		case sEnd <= fCur:
			// s lies entirely before the unshadowed remainder of f.
			emit(s.Off, s.Data)
			si++
		case s.Off >= fEnd:
			// The remainder of f lies entirely before s.
			emit(fCur, f.Data[fCur-f.Off:])
			fi++
			fCur = fEnd
		default:
			// Overlap: emit f's prefix up to s, then s itself; f resumes
			// past s's end (possibly in a later iteration / later run).
			if fCur < s.Off {
				emit(fCur, f.Data[fCur-f.Off:s.Off-f.Off])
			}
			emit(s.Off, s.Data)
			si++
			fCur = sEnd
		}
	}
	return nil
}

func (d Diff) clone() Diff {
	c := Diff{Replace: d.Replace, Len: d.Len}
	if d.Runs != nil {
		c.Runs = make([]Run, len(d.Runs))
		for i, r := range d.Runs {
			data := make([]byte, len(r.Data))
			copy(data, r.Data)
			c.Runs[i] = Run{Off: r.Off, Data: data}
		}
	}
	return c
}

// uvarintLen returns the number of bytes binary.AppendUvarint emits for v.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// EncodedSize returns len(AppendEncode(nil, d)) without encoding: payload
// builders write it as the record's length prefix and size-compare it
// against the XOR form.
func EncodedSize(d Diff) int {
	size := 1 + uvarintLen(uint64(d.Len)) + uvarintLen(uint64(len(d.Runs)))
	for _, r := range d.Runs {
		size += uvarintLen(uint64(r.Off)) + uvarintLen(uint64(len(r.Data))) + len(r.Data)
	}
	return size
}

// AppendEncode appends d's transmission encoding to dst and returns the
// extended slice.
func AppendEncode(dst []byte, d Diff) []byte {
	var flags byte
	if d.Replace {
		flags = 1
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(d.Len))
	dst = binary.AppendUvarint(dst, uint64(len(d.Runs)))
	for _, r := range d.Runs {
		dst = binary.AppendUvarint(dst, uint64(r.Off))
		dst = binary.AppendUvarint(dst, uint64(len(r.Data)))
		dst = append(dst, r.Data...)
	}
	return dst
}

// Decode parses an encoded diff into freshly allocated runs.
func Decode(buf []byte) (Diff, error) {
	var d Diff
	if err := decode(&d, buf, false); err != nil {
		return Diff{}, err
	}
	return d, nil
}

// DecodeAliased parses an encoded diff into d, recycling d's Runs slice;
// run data aliases buf instead of being copied, so d is valid only while
// buf is. It is for decode scratch that is consumed before buf is reused
// (pooled receive buffers); d must not be handed to the *Into functions
// afterwards, which would write through the aliases.
func DecodeAliased(d *Diff, buf []byte) error {
	return decode(d, buf, true)
}

func decode(d *Diff, buf []byte, alias bool) error {
	d.Runs = d.Runs[:0]
	if len(buf) < 1 {
		return ErrCorrupt
	}
	if buf[0] > 1 {
		return fmt.Errorf("%w: bad flags %d", ErrCorrupt, buf[0])
	}
	d.Replace = buf[0] == 1
	buf = buf[1:]
	length, n := binary.Uvarint(buf)
	if n <= 0 {
		return fmt.Errorf("%w: length", ErrCorrupt)
	}
	buf = buf[n:]
	nRuns, n := binary.Uvarint(buf)
	if n <= 0 {
		return fmt.Errorf("%w: run count", ErrCorrupt)
	}
	buf = buf[n:]
	d.Len = int(length)
	if nRuns > uint64(len(buf))+1 { // each run needs at least 2 bytes of header
		return fmt.Errorf("%w: %d runs in %d bytes", ErrCorrupt, nRuns, len(buf))
	}
	prevEnd := -1
	for i := uint64(0); i < nRuns; i++ {
		off, n := binary.Uvarint(buf)
		if n <= 0 {
			return fmt.Errorf("%w: run %d offset", ErrCorrupt, i)
		}
		buf = buf[n:]
		dlen, n := binary.Uvarint(buf)
		if n <= 0 {
			return fmt.Errorf("%w: run %d length", ErrCorrupt, i)
		}
		buf = buf[n:]
		if dlen > uint64(len(buf)) {
			return fmt.Errorf("%w: run %d data truncated", ErrCorrupt, i)
		}
		if int(off) <= prevEnd {
			return fmt.Errorf("%w: runs unsorted or overlapping", ErrCorrupt)
		}
		if int(off)+int(dlen) > d.Len {
			return fmt.Errorf("%w: run %d out of bounds", ErrCorrupt, i)
		}
		data := buf[:dlen:dlen]
		if !alias {
			data = make([]byte, dlen)
			copy(data, buf)
		}
		buf = buf[dlen:]
		d.Runs = append(d.Runs, Run{Off: int(off), Data: data})
		prevEnd = int(off) + int(dlen) - 1
	}
	if len(buf) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(buf))
	}
	if d.Replace && (len(d.Runs) != 1 || d.Runs[0].Off != 0 || len(d.Runs[0].Data) != d.Len) {
		return fmt.Errorf("%w: malformed replacement", ErrCorrupt)
	}
	return nil
}
