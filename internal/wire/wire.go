// Package wire defines the message vocabulary spoken by every S-DSO
// consistency protocol, together with its one binary codec and the framing
// helpers used by the TCP transport.
//
// An encoded message is two bytes — kind and mode — followed by varints:
// the stamp, the object ID, the two counts, each of Ints, then the payload
// bytes (DESIGN.md §3.4 has the table). A message costs what its values
// need, 6 bytes at least. Routing is not encoded: Src and Dst are the link's,
// set by the transport that delivers the message, so one encoding serves
// every destination of a fanout unchanged. The format carries no version:
// every process of a session runs one build.
//
// The paper's protocols exchange two broad message classes: control messages
// (SYNC rendezvous markers, lock traffic, done/shutdown notifications) and
// data messages (object diffs or full object state). Msg.IsData reports the
// class, which the metrics layer uses to reproduce the paper's Figure 6
// (total messages) versus Figure 7 (data messages only) split.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync"
)

// Kind identifies a message's role in a consistency protocol.
type Kind uint8

// Message kinds. Kinds up to KindDone are used by the lookahead protocols
// (BSYNC/MSYNC/MSYNC2); the lock kinds implement entry consistency; the
// notice/diff kinds implement lazy release consistency; KindUpdate carries
// causal-memory updates.
const (
	// KindSync is a lookahead rendezvous marker carrying no object data.
	// A process blocked by data-race arbitration sends a bare SYNC in
	// place of a (data, SYNC) pair.
	KindSync Kind = iota + 1
	// KindData carries object diffs; in the lookahead protocols it is
	// always logically paired with a SYNC at the same Stamp.
	KindData
	// KindDone announces that the sender has finished (reached the goal
	// or been destroyed) after making its last modification at Stamp.
	KindDone
	// KindLockReq asks a lock manager for the object named by Obj in the
	// mode named by Mode.
	KindLockReq
	// KindLockGrant grants a lock; Ints[0] is the node holding the
	// freshest copy and Ints[1] its version.
	KindLockGrant
	// KindLockRelease returns a lock; for write locks Ints[0] carries the
	// new version written by the releaser.
	KindLockRelease
	// KindObjReq pulls a fresh object copy from its current owner.
	KindObjReq
	// KindObjReply answers an ObjReq with the object state in Payload.
	KindObjReply
	// KindWriteNotice carries standalone LRC write notices. The bundled
	// LRC implementation piggybacks its notice boards on lock grants and
	// releases instead; the kind is reserved for custom protocols that
	// ship notices out of band.
	KindWriteNotice
	// KindDiffReq asks a peer for the diffs of Obj since Stamp (reserved,
	// as for KindWriteNotice).
	KindDiffReq
	// KindDiffReply answers a DiffReq with diffs in Payload.
	KindDiffReply
	// KindUpdate is a causally-ordered memory update; Ints carries the
	// sender's vector clock.
	KindUpdate
	// KindShutdown tells service processes to exit.
	KindShutdown
	// KindHello is the TCP transport handshake: the dialer of a new
	// connection sends one, naming its node ID (Stamp) with Ints =
	// [incarnation, connection generation, data frames received this
	// session], and on a resumable link the acceptor answers with its own.
	// A rejoining process presents a higher incarnation, which evicts any
	// stale socket still installed for its ID, and the receive count tells
	// a resumable link what to replay. A hello with fewer ints is refused.
	KindHello
	// KindCrash announces that the node named by Stamp is presumed
	// crashed (fail-stop). Receivers purge its locks, fail its shard of
	// lock managers over, and stop waiting for it.
	KindCrash
	// KindLockBusy is a lock manager's answer to a retransmitted lock
	// request that is still queued: Ints lists the current holders, so
	// the requester redirects its suspicion from the (live) manager to a
	// possibly-crashed holder.
	KindLockBusy
	// KindJoinReq asks a live peer to admit the sender — a restarted
	// process or a brand-new late joiner — into the game. Stamp carries
	// the joiner's incarnation number, which distinguishes successive
	// lives of the same process ID.
	KindJoinReq
	// KindJoinAck admits a joiner. In the lookahead protocols Stamp carries
	// the admission tick the responder granted and Ints is [epoch,
	// gameOver, members...]: the responder's membership epoch, its
	// game-over flag, and its live-member list. In EC, Stamp echoes the
	// joiner's incarnation, Ints carries [gameOver, crashedTeams...], and
	// Payload the lock-manager shard records handed back to the rejoining
	// base manager (see lockmgr.EncodeRecords).
	KindJoinAck
	// KindSnapshot carries a store checkpoint — object bytes, versions,
	// and a logical-clock floor (see store.Snapshot) — answering a
	// KindJoinReq alongside the KindJoinAck.
	KindSnapshot
	// KindQRead is a quorum phase-1 query: the client asks a replica
	// group member for its highest committed value. In EC, Stamp names
	// the shard's base manager whose ownership records are wanted.
	KindQRead
	// KindQReadAck answers a KindQRead with the member's current value:
	// in EC, Payload carries the member's replicated ownership records
	// for the queried shard (lockmgr.EncodeRecords).
	KindQReadAck
	// KindQWrite is a quorum phase-2 write-back: the client installs a
	// value at a replica group member. In EC, Stamp is the commit
	// sequence to ack, Obj the object, and Ints [owner, version] the
	// ownership record being committed.
	KindQWrite
	// KindQWriteAck acknowledges a KindQWrite; Stamp echoes the commit
	// sequence. The majority-th ack commits the write.
	KindQWriteAck
	// KindCkpt streams a store checkpoint to a replica peer at an epoch
	// boundary: Obj names the origin process whose state the payload
	// snapshots, Stamp the origin's clock at checkpoint time. Receivers
	// vault the freshest blob per origin and serve it back at
	// rejoin/late-join time, so recovery survives the loss of every
	// original holder.
	KindCkpt
	// KindPing is a transport-level liveness probe sent on an idle TCP
	// link; Stamp carries the sender's probe sequence. It is answered by
	// KindPong and consumed inside the transport — protocols never see
	// either kind.
	KindPing
	// KindPong answers a KindPing, echoing its Stamp. Any traffic counts
	// as liveness evidence; PONG merely guarantees an idle-but-healthy
	// link produces some.
	KindPong

	kindMax
)

// NumKinds is one past the largest valid Kind, for dense per-kind tables.
const NumKinds = int(kindMax)

var kindNames = map[Kind]string{
	KindSync:        "SYNC",
	KindData:        "DATA",
	KindDone:        "DONE",
	KindLockReq:     "LOCK_REQ",
	KindLockGrant:   "LOCK_GRANT",
	KindLockRelease: "LOCK_REL",
	KindObjReq:      "OBJ_REQ",
	KindObjReply:    "OBJ_REPLY",
	KindWriteNotice: "WRITE_NOTICE",
	KindDiffReq:     "DIFF_REQ",
	KindDiffReply:   "DIFF_REPLY",
	KindUpdate:      "UPDATE",
	KindShutdown:    "SHUTDOWN",
	KindHello:       "HELLO",
	KindCrash:       "CRASH",
	KindLockBusy:    "LOCK_BUSY",
	KindJoinReq:     "JOIN_REQ",
	KindJoinAck:     "JOIN_ACK",
	KindSnapshot:    "SNAPSHOT",
	KindQRead:       "QREAD",
	KindQReadAck:    "QREAD_ACK",
	KindQWrite:      "QWRITE",
	KindQWriteAck:   "QWRITE_ACK",
	KindCkpt:        "CKPT",
	KindPing:        "PING",
	KindPong:        "PONG",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Valid reports whether k is a defined message kind.
func (k Kind) Valid() bool { return k >= KindSync && k < kindMax }

// Lock modes carried in Msg.Mode by the lock-based protocols.
const (
	// ModeRead requests a shared read lock.
	ModeRead uint8 = 1
	// ModeWrite requests an exclusive write lock.
	ModeWrite uint8 = 2
)

// Mode flag bits on KindData frames. A runtime call sends each peer exactly
// one frame (DESIGN.md §15, the frame rule), so when data flows the call's
// marker rides the data frame; unflagged DATA followed by a bare SYNC or
// DONE is the same logical pair in two frames. The bits occupy the high
// nibble: they compose, and are disjoint from the small-integer modes.
const (
	// ModeSyncPiggyback: the frame also carries the sender's SYNC
	// rendezvous marker for the same Stamp, with the SYNC beacon in Ints.
	ModeSyncPiggyback uint8 = 0x80
	// ModeDeltaPayload: the payload uses the delta-capable record encoding
	// (xlist.EncodeDeltaRecords) — each record a full diff or an XOR delta
	// against a base the receiver is expected to hold. Set only when
	// Config.DeltaEncode is on; other payloads keep the plain encoding.
	ModeDeltaPayload uint8 = 0x40
	// ModeDonePiggyback: the frame is the sender's final flush and also
	// carries its DONE. The flush is stamped one tick past the sender's
	// last Exchange; the DONE keeps its own stamp, Stamp-1, and takes
	// effect at arrival even while the data half waits for its tick.
	ModeDonePiggyback uint8 = 0x20
	// ModeDoneWon accompanies ModeDonePiggyback when the departing process
	// reached the application's goal (a bare DONE says so with Mode 1).
	ModeDoneWon uint8 = 0x10
)

// Msg is a protocol message. The fixed header fields cover every protocol's
// needs; Ints is a small variable-length header (owner/version pairs, vector
// clocks) and Payload carries object state or encoded diffs.
type Msg struct {
	Kind    Kind
	Src     int32  // sending process, set by the transport (not encoded)
	Dst     int32  // destination process, set by the transport (not encoded); -1 on a shared message
	refs    int32  // holders of a shared message (Share), 0 for one owner; in the hole before Stamp; sync/atomic only
	Stamp   int64  // logical timestamp / pair sequence / tick
	Obj     uint32 // object identifier, when relevant
	Mode    uint8  // lock mode or protocol-specific flag
	pooled  bool   // the pool's struct (GetMsg, PutMsg), so PutPooled takes it; in Mode's padding
	Ints    []int64
	Payload []byte
}

// IsData reports whether the message carries object data (the paper's
// "data message" class); everything else is a control message.
func (m *Msg) IsData() bool {
	switch m.Kind {
	case KindData, KindObjReply, KindDiffReply, KindUpdate, KindSnapshot, KindCkpt:
		return true
	}
	return false
}

// String returns a compact debugging representation.
func (m *Msg) String() string {
	return fmt.Sprintf("%s %d->%d stamp=%d obj=%d mode=%d ints=%d payload=%dB",
		m.Kind, m.Src, m.Dst, m.Stamp, m.Obj, m.Mode, len(m.Ints), len(m.Payload))
}

// Codec limits, preventing hostile frames from exhausting memory.
const (
	// MaxPayload bounds Msg.Payload in the codec.
	MaxPayload = 16 << 20
	// MaxInts bounds len(Msg.Ints) in the codec.
	MaxInts = 1 << 16
)

// Errors returned by the codec.
var (
	ErrShortBuffer = errors.New("wire: short buffer")
	ErrBadKind     = errors.New("wire: invalid message kind")
	ErrTooLarge    = errors.New("wire: field exceeds codec limit")
)

// Layout of an encoded message (DESIGN.md §3.4). Kind and Mode are one byte
// each; everything after them is as wide as its value: Stamp as a zig-zag
// varint, Obj, len(Ints) and len(Payload) as uvarints, each of Ints as a
// zig-zag varint, then the payload bytes. Src and Dst are not encoded.
const (
	prefixSize = 1 + 1 // kind, mode
	// encodedHeaderSize is the smallest encoding there is: the prefix and
	// four one-byte varints (stamp, obj, nints, npayload).
	encodedHeaderSize = prefixSize + 4
	// maxEncodedSize is the largest: every varint at full width
	// (stamp 10, obj 5, nints 3, npayload 4 bytes; 10 bytes an int).
	maxEncodedSize = prefixSize + 10 + 5 + 3 + 4 + 10*MaxInts + MaxPayload
)

// zigzag maps a signed value onto the unsigned one encoding/binary's
// PutVarint writes, so small magnitudes of either sign encode short.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// uvarintLen returns the number of bytes binary.AppendUvarint writes for x.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// EncodedSize returns the exact length of m's binary encoding.
func (m *Msg) EncodedSize() int {
	n := prefixSize + uvarintLen(zigzag(m.Stamp)) + uvarintLen(uint64(m.Obj)) +
		uvarintLen(uint64(len(m.Ints))) + uvarintLen(uint64(len(m.Payload))) + len(m.Payload)
	for _, v := range m.Ints {
		n += uvarintLen(zigzag(v))
	}
	return n
}

// AppendBinary appends m's binary encoding to dst and returns the extended
// slice (encoding.BinaryAppender semantics). It allocates only when dst
// lacks capacity, so steady-state encoders that recycle their buffers
// marshal with zero per-message heap allocations.
func (m *Msg) AppendBinary(dst []byte) ([]byte, error) {
	if !m.Kind.Valid() {
		return dst, ErrBadKind
	}
	if len(m.Payload) > MaxPayload || len(m.Ints) > MaxInts {
		return dst, ErrTooLarge
	}
	encodeCalls.Add(1)
	dst = append(dst, byte(m.Kind), m.Mode)
	dst = binary.AppendVarint(dst, m.Stamp)
	dst = binary.AppendUvarint(dst, uint64(m.Obj))
	dst = binary.AppendUvarint(dst, uint64(len(m.Ints)))
	dst = binary.AppendUvarint(dst, uint64(len(m.Payload)))
	for _, v := range m.Ints {
		dst = binary.AppendVarint(dst, v)
	}
	return append(dst, m.Payload...), nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *Msg) MarshalBinary() ([]byte, error) {
	buf, err := m.AppendBinary(make([]byte, 0, m.EncodedSize()))
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// uvarint reads the uvarint at buf[off:] and returns it with the offset of
// the byte after it, or with what binary.Uvarint reports on failure, for
// varintErr to name.
func uvarint(buf []byte, off int) (v uint64, next int) {
	v, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return 0, n
	}
	return v, off + n
}

// varintErr names a failed uvarint: next is 0 when the buffer ended inside
// the varint, negative when it ran past ten bytes or overflowed 64 bits.
func varintErr(next int) error {
	if next == 0 {
		return ErrShortBuffer
	}
	return ErrTooLarge
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler with reuse
// semantics: m's existing Ints and Payload slices are resized in place when
// their capacity suffices, so a steady-state decoder that recycles one Msg
// pays zero per-message heap allocations. The decoded fields never alias
// buf — ReadFrame pools and scribbles over its frame buffers, and protocols
// buffer decoded messages long after the frame is recycled
// (TestUnmarshalDoesNotAliasInput is the regression witness). Src and Dst
// are not in the encoding, so the decoder leaves them as they were: every
// receive path sets them from the link the frame arrived on.
//
// buf comes off a socket, so the whole frame is validated before m is
// touched or anything is allocated: the minimum length, the kind, each
// header varint and its limit, the two counts against the bytes that
// follow them, every Ints varint, and finally that the frame ends exactly
// where the payload does. A rejected frame leaves m as it was, and the
// errors are the bare sentinels, so rejecting one allocates nothing either.
func (m *Msg) UnmarshalBinary(buf []byte) error { return m.unmarshal(buf, nil) }

// unmarshal is the one decode body. Given a source, it takes m.Ints from it
// and never writes into the slice m.Ints held, which may be a beacon
// somebody kept; without one, it has UnmarshalBinary's reuse semantics.
func (m *Msg) unmarshal(buf []byte, src IntsSource) error {
	if len(buf) < encodedHeaderSize {
		return ErrShortBuffer
	}
	k := Kind(buf[0])
	if !k.Valid() {
		return ErrBadKind
	}
	var hdr [4]uint64 // stamp (zig-zag), obj, len(Ints), len(Payload)
	off := prefixSize
	for i := range hdr {
		if off < len(buf) && buf[off] < 0x80 {
			hdr[i] = uint64(buf[off]) // one byte, as most ticks, IDs and counts are
			off++
		} else if hdr[i], off = uvarint(buf, off); off <= 0 {
			return varintErr(off)
		}
	}
	ustamp, obj, nInts, nPayload := hdr[0], hdr[1], hdr[2], hdr[3]
	if obj > math.MaxUint32 || nInts > MaxInts || nPayload > MaxPayload {
		return ErrTooLarge
	}
	// Every int takes at least one byte, so this bounds both counts by
	// what is actually there before either sizes a slice.
	if nInts+nPayload > uint64(len(buf)-off) {
		return ErrShortBuffer
	}
	ints := buf[off : len(buf)-int(nPayload)]
	p := 0
	for i := uint64(0); i < nInts; i++ {
		if p < len(ints) && ints[p] < 0x80 {
			p++
		} else if _, p = uvarint(ints, p); p <= 0 {
			return varintErr(p)
		}
	}
	if p != len(ints) {
		return ErrShortBuffer // bytes left over between the ints and the payload
	}

	m.Kind = k
	m.Mode = buf[1]
	m.Stamp = unzigzag(ustamp)
	m.Obj = uint32(obj)
	switch {
	case src != nil:
		m.Ints = nil
		if nInts > 0 {
			m.Ints = src.Take(int(nInts))
		}
	case cap(m.Ints) < int(nInts):
		m.Ints = make([]int64, nInts)
	case m.Ints != nil:
		m.Ints = m.Ints[:nInts]
	}
	p = 0
	for i := range m.Ints {
		u := uint64(ints[p])
		if u < 0x80 {
			p++
		} else {
			u, p = uvarint(ints, p) // cannot fail: validated above
		}
		m.Ints[i] = unzigzag(u)
	}
	if nPayload == 0 {
		if m.Payload != nil {
			m.Payload = m.Payload[:0]
		}
	} else {
		if cap(m.Payload) < int(nPayload) {
			m.Payload = make([]byte, nPayload)
		} else {
			m.Payload = m.Payload[:nPayload]
		}
		copy(m.Payload, buf[len(buf)-int(nPayload):])
	}
	return nil
}

// framePool recycles frame scratch buffers across WriteFrame/ReadFrame
// calls. Buffers are pooled through a pointer-to-slice so the pool itself
// does not allocate per Put, and they re-enter the pool scribbled-over only
// in the sense that the next frame overwrites them — decoded Msgs never
// alias them (see UnmarshalBinary).
var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 4+encodedHeaderSize+512); return &b }}

// WriteFrame writes m to w as a length-prefixed frame. The frame is staged
// in a pooled scratch buffer and issued as a single Write, so steady-state
// senders allocate nothing per message.
func WriteFrame(w io.Writer, m *Msg) error {
	bp := framePool.Get().(*[]byte)
	defer framePool.Put(bp)
	buf := append((*bp)[:0], 0, 0, 0, 0) // length prefix placeholder
	buf, err := m.AppendBinary(buf)
	if err != nil {
		*bp = buf[:0]
		return fmt.Errorf("marshal %s: %w", m.Kind, err)
	}
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4))
	*bp = buf // keep any growth for the next frame
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed frame from r into m. The frame body
// lands in a pooled scratch buffer that is recycled on return; m owns none
// of it (UnmarshalBinary copies), so callers may retain m and its slices
// indefinitely. Like UnmarshalBinary it leaves m.Src and m.Dst alone: the
// caller knows which link r is.
func ReadFrame(r io.Reader, m *Msg) error { return readFrame(r, m, nil) }

// ReadFrameCarved is ReadFrame with m.Ints taken from src: whatever m.Ints
// held is left alone, and nothing else is allocated.
func ReadFrameCarved(r io.Reader, m *Msg, src IntsSource) error { return readFrame(r, m, src) }

func readFrame(r io.Reader, m *Msg, src IntsSource) error {
	bp := framePool.Get().(*[]byte)
	defer framePool.Put(bp)
	// The length prefix lands in the pooled buffer too: a local array handed
	// to an io.Reader escapes, an allocation per frame.
	hdr := (*bp)[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return err // io.EOF passes through for clean connection shutdown
	}
	n := binary.BigEndian.Uint32(hdr)
	if n < encodedHeaderSize || n > maxEncodedSize {
		return fmt.Errorf("%w: frame length %d", ErrTooLarge, n)
	}
	var body []byte
	if cap(*bp) < int(n) {
		body = make([]byte, n)
	} else {
		body = (*bp)[:n]
	}
	*bp = body[:0]
	if _, err := io.ReadFull(r, body); err != nil {
		return fmt.Errorf("read frame body: %w", err)
	}
	return m.unmarshal(body, src)
}

// Clone returns a deep copy of m, neither the pool's (PutPooled leaves it
// alone) nor shared. Protocols that buffer messages use Clone to decouple
// from sender-owned slices. It copies field by field: the holders of a
// shared m update its count concurrently.
func (m *Msg) Clone() *Msg {
	c := Msg{Kind: m.Kind, Src: m.Src, Dst: m.Dst, Stamp: m.Stamp, Obj: m.Obj, Mode: m.Mode}
	if m.Ints != nil {
		c.Ints = make([]int64, len(m.Ints))
		copy(c.Ints, m.Ints)
	}
	if m.Payload != nil {
		c.Payload = make([]byte, len(m.Payload))
		copy(c.Payload, m.Payload)
	}
	return &c
}
