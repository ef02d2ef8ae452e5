// Package wire defines the message vocabulary spoken by every S-DSO
// consistency protocol, together with a compact binary codec and framing
// helpers used by the TCP transport.
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
	// KindHello is the TCP transport handshake announcing the sender's
	// node ID (Stamp). Resilient endpoints (TCPConfig.Reconnect) extend
	// it with Ints = [incarnation, connection generation]: a rejoining
	// process presents a higher incarnation, which evicts any stale
	// socket still installed for its ID, and both sides exchange hellos
	// instead of the legacy dialer-only announcement.
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
	Src     int32  // sending process
	Dst     int32  // destination process
	Stamp   int64  // logical timestamp / pair sequence / tick
	Obj     uint32 // object identifier, when relevant
	Mode    uint8  // lock mode or protocol-specific flag
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

// encodedHeaderSize is the fixed portion of an encoded message:
// kind(1) + mode(1) + src(4) + dst(4) + stamp(8) + obj(4) + nints(4) + npayload(4).
const encodedHeaderSize = 1 + 1 + 4 + 4 + 8 + 4 + 4 + 4

// EncodedSize returns the exact length of m's binary encoding.
func (m *Msg) EncodedSize() int {
	return encodedHeaderSize + 8*len(m.Ints) + len(m.Payload)
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
	base := len(dst)
	dst = append(dst, make([]byte, m.EncodedSize())...)
	buf := dst[base:]
	buf[0] = byte(m.Kind)
	buf[1] = m.Mode
	binary.BigEndian.PutUint32(buf[2:], uint32(m.Src))
	binary.BigEndian.PutUint32(buf[6:], uint32(m.Dst))
	binary.BigEndian.PutUint64(buf[10:], uint64(m.Stamp))
	binary.BigEndian.PutUint32(buf[18:], m.Obj)
	binary.BigEndian.PutUint32(buf[22:], uint32(len(m.Ints)))
	binary.BigEndian.PutUint32(buf[26:], uint32(len(m.Payload)))
	off := encodedHeaderSize
	for _, v := range m.Ints {
		binary.BigEndian.PutUint64(buf[off:], uint64(v))
		off += 8
	}
	copy(buf[off:], m.Payload)
	return dst, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *Msg) MarshalBinary() ([]byte, error) {
	buf, err := m.AppendBinary(make([]byte, 0, m.EncodedSize()))
	if err != nil {
		return nil, err
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler with reuse
// semantics: m's existing Ints and Payload slices are resized in place when
// their capacity suffices, so a steady-state decoder that recycles one Msg
// pays zero per-message heap allocations. The decoded fields never alias
// buf — ReadFrame pools and scribbles over its frame buffers, and protocols
// buffer decoded messages long after the frame is recycled
// (TestUnmarshalDoesNotAliasInput is the regression witness).
func (m *Msg) UnmarshalBinary(buf []byte) error {
	if len(buf) < encodedHeaderSize {
		return ErrShortBuffer
	}
	k := Kind(buf[0])
	if !k.Valid() {
		return ErrBadKind
	}
	nInts := binary.BigEndian.Uint32(buf[22:])
	nPayload := binary.BigEndian.Uint32(buf[26:])
	if nInts > MaxInts || nPayload > MaxPayload {
		return ErrTooLarge
	}
	want := encodedHeaderSize + 8*int(nInts) + int(nPayload)
	if len(buf) != want {
		return fmt.Errorf("%w: have %d bytes, want %d", ErrShortBuffer, len(buf), want)
	}
	m.Kind = k
	m.Mode = buf[1]
	m.Src = int32(binary.BigEndian.Uint32(buf[2:]))
	m.Dst = int32(binary.BigEndian.Uint32(buf[6:]))
	m.Stamp = int64(binary.BigEndian.Uint64(buf[10:]))
	m.Obj = binary.BigEndian.Uint32(buf[18:])
	if nInts == 0 {
		if m.Ints != nil {
			m.Ints = m.Ints[:0]
		}
	} else {
		if cap(m.Ints) < int(nInts) {
			m.Ints = make([]int64, nInts)
		} else {
			m.Ints = m.Ints[:nInts]
		}
		off := encodedHeaderSize
		for i := range m.Ints {
			m.Ints[i] = int64(binary.BigEndian.Uint64(buf[off:]))
			off += 8
		}
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
// indefinitely.
func ReadFrame(r io.Reader, m *Msg) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err // io.EOF passes through for clean connection shutdown
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n < encodedHeaderSize || n > MaxPayload+8*MaxInts+encodedHeaderSize {
		return fmt.Errorf("%w: frame length %d", ErrTooLarge, n)
	}
	bp := framePool.Get().(*[]byte)
	defer framePool.Put(bp)
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
	return m.UnmarshalBinary(body)
}

// Clone returns a deep copy of m. Protocols that buffer messages use Clone
// to decouple from sender-owned slices.
func (m *Msg) Clone() *Msg {
	c := *m
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
