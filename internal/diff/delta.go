// XOR delta encoding: a second, denser wire form for object updates used
// by the core runtime's delta-encoded exchanges. Where Encode ships the new
// bytes of each changed run, an XOR delta ships base^next for the changed
// positions — decodable only against the exact base it was computed from,
// so senders pair every delta with the base's version and fingerprint and
// receivers verify both before applying (a mismatched base must be detected
// and rejected, never silently patched).
package diff

import (
	"encoding/binary"
	"fmt"
)

// fnvOffset and fnvPrime are the 32-bit FNV-1a constants.
const (
	fnvOffset uint32 = 2166136261
	fnvPrime  uint32 = 16777619
)

// Fingerprint hashes an object state (32-bit FNV-1a). Delta records carry
// the base state's fingerprint so a receiver whose replica diverged from
// the sender's base — same version, different content, after a PID-
// arbitrated race — rejects the delta instead of decoding garbage.
func Fingerprint(b []byte) uint32 {
	h := fnvOffset
	for _, c := range b {
		h ^= uint32(c)
		h *= fnvPrime
	}
	return h
}

// AppendXOR appends the XOR delta transforming base into next to dst and
// returns the extended slice; on error dst is returned unchanged. Both
// states must have the same length (object sizes never change in place;
// senders fall back to full records otherwise). The encoding is a uvarint
// state length followed by (skip, runLen, runLen bytes of base^next)
// triples over the differing positions, with equal gaps shorter than the
// coalesce threshold absorbed into one run — the same trade Compute makes.
// Payload builders XOR a whole batch into one scratch buffer with it.
func AppendXOR(dst, base, next []byte) ([]byte, error) {
	if len(base) != len(next) {
		return dst, fmt.Errorf("%w: base %d, next %d", ErrLengthMismatch, len(base), len(next))
	}
	buf := binary.AppendUvarint(dst, uint64(len(next)))
	cursor := 0
	i := 0
	for i < len(next) {
		if base[i] == next[i] {
			i++
			continue
		}
		start := i
		last := i
		for i < len(next) {
			if base[i] != next[i] {
				last = i
				i++
				continue
			}
			j := i
			for j < len(next) && j-i < coalesceGap && base[j] == next[j] {
				j++
			}
			if j < len(next) && j-i < coalesceGap {
				i = j
				continue
			}
			break
		}
		buf = binary.AppendUvarint(buf, uint64(start-cursor))
		buf = binary.AppendUvarint(buf, uint64(last+1-start))
		for k := start; k <= last; k++ {
			buf = append(buf, base[k]^next[k])
		}
		cursor = last + 1
	}
	return buf, nil
}

// ApplyXORTo decodes an XOR delta against base into dst (in place when
// its capacity suffices) and returns the next state; a nil dst gets a
// fresh slice. It fails with ErrLengthMismatch when the delta was computed
// against a state of a different length and ErrCorrupt on any malformed
// input. dst must not alias base or delta, base is never modified, and dst
// holds no meaningful bytes after an error.
func ApplyXORTo(dst, base, delta []byte) ([]byte, error) {
	n, used := binary.Uvarint(delta)
	if used <= 0 {
		return nil, fmt.Errorf("%w: delta length header", ErrCorrupt)
	}
	delta = delta[used:]
	if n != uint64(len(base)) {
		return nil, fmt.Errorf("%w: base %d, delta expects %d", ErrLengthMismatch, len(base), n)
	}
	out := append(dst[:0], base...)
	if out == nil {
		out = []byte{} // a reconstructed state is never nil, even when empty
	}
	cursor := 0
	for len(delta) > 0 {
		skip, used := binary.Uvarint(delta)
		if used <= 0 {
			return nil, fmt.Errorf("%w: run skip", ErrCorrupt)
		}
		delta = delta[used:]
		runLen, used := binary.Uvarint(delta)
		if used <= 0 {
			return nil, fmt.Errorf("%w: run length", ErrCorrupt)
		}
		delta = delta[used:]
		if runLen == 0 {
			return nil, fmt.Errorf("%w: empty run", ErrCorrupt)
		}
		if skip > uint64(len(out)-cursor) || runLen > uint64(len(out)-cursor)-skip {
			return nil, fmt.Errorf("%w: run exceeds state", ErrCorrupt)
		}
		if runLen > uint64(len(delta)) {
			return nil, fmt.Errorf("%w: run data truncated", ErrCorrupt)
		}
		cursor += int(skip)
		for k := 0; k < int(runLen); k++ {
			out[cursor+k] ^= delta[k]
		}
		cursor += int(runLen)
		delta = delta[runLen:]
	}
	return out, nil
}
